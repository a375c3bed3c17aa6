"""Map normalization operators and final saliency fusion.

The first operator (N1) multiplies a map globally by (m - mbar)**2,
where m is the global maximum and mbar the average of the other local
maxima: maps dominated by a single peak are promoted, maps with many
comparable peaks are suppressed.  The second operator (N2) first
rescales the map to a fixed range so that channels of different
modality compete fairly, then applies the same peak statistic.

The local maxima behind that statistic follow one fixed rule,
``MAXIMA_RADIUS`` and ``MAXIMA_THRESHOLD``, so the operators take only
the map.
"""
from __future__ import annotations

import numpy as np
from scipy import ndimage

from .channels import ChannelId
from .errors import DimensionError
from .pyramid import collapse

#: Neighborhood radius of a local maximum: its 3x3 neighbors.
MAXIMA_RADIUS = 1
#: Fraction of the global maximum that a local maximum must reach.
MAXIMA_THRESHOLD = 0.05


def local_maxima(map_: np.ndarray):
    """Pixels strictly above every neighbor within ``MAXIMA_RADIUS``.

    Only peaks reaching ``MAXIMA_THRESHOLD`` * global_max are kept.
    Returns a list of (x, y, value); on a constant map there are no
    strict maxima and the list is empty.
    """
    map_ = np.asarray(map_, dtype=np.float64)
    if map_.size == 0:
        raise DimensionError("empty map")
    r = MAXIMA_RADIUS
    footprint = np.ones((2 * r + 1, 2 * r + 1), dtype=bool)
    footprint[r, r] = False
    neighbor_max = ndimage.maximum_filter(
        map_, footprint=footprint, mode="constant", cval=-np.inf
    )
    floor = MAXIMA_THRESHOLD * float(map_.max())
    ys, xs = np.nonzero((map_ > neighbor_max) & (map_ >= floor))
    return [(int(x), int(y), float(map_[y, x])) for y, x in zip(ys, xs)]


def _peak_factor(map_: np.ndarray) -> float:
    m = float(map_.max())
    values = [v for _, _, v in local_maxima(map_)]
    # One instance at the global maximum belongs to m itself; the rest
    # are the "other" maxima.  A plateau global max never enters values.
    if m in values:
        values.remove(m)
    mbar = float(np.mean(values)) if values else 0.0
    return (m - mbar) ** 2


def normalize_n1(map_: np.ndarray) -> np.ndarray:
    """Promote single-peak maps: map * (m - mbar)**2."""
    map_ = np.asarray(map_, dtype=np.float64)
    return map_ * _peak_factor(map_)


def rescale_to_range(map_: np.ndarray) -> np.ndarray:
    """Affine rescale onto [0, 1]; an all-equal map becomes zero.

    A ceiling other than 1 before N1 would scale every channel by its
    cube, which the final rescale of the fused map cancels, so the range
    is fixed.
    """
    map_ = np.asarray(map_, dtype=np.float64)
    lo = float(map_.min())
    hi = float(map_.max())
    if hi <= lo:
        return np.zeros_like(map_)
    # A product with the reciprocal rounds differently from a division;
    # the recorded map digests rest on the product.
    return (map_ - lo) * (1.0 / (hi - lo))


def normalize_n2(map_: np.ndarray) -> np.ndarray:
    """Range-normalize to [0, 1], then apply the N1 statistic.

    The rescale step makes the operator invariant to any positive
    affine transform of the input, so channels with incomparable units
    can be fused.
    """
    return normalize_n1(rescale_to_range(map_))


def conspicuity(levels) -> np.ndarray:
    """One channel's normalized conspicuity map from its grouping levels,
    finest first: N1 on every level, collapse to level 0's resolution, N2.

    N(.) normalizes each channel on its own, so ``Pipeline.step`` forms a
    channel's map as soon as that channel is grouped and drops its levels.
    Levels with no non-zero pixel (in every mode, the opponency channels
    of a gray frame) normalize to zeros without the work: N1 scales each
    level by (0 - 0)**2, and N2's rescale maps a constant conspicuity map
    to zeros.  They get one read-only broadcast zero of level 0's shape.
    """
    shape = levels[0].shape
    if not any(level.any() for level in levels):
        return np.broadcast_to(0.0, shape)
    return normalize_n2(collapse([normalize_n1(level) for level in levels], *shape))


def fuse(conspicuity_maps: dict) -> np.ndarray:
    """Linear fusion of the nine channels' conspicuity maps into one
    saliency map.

    The maps (``conspicuity``) are summed in ``ChannelId`` order and the
    sum rescaled to [0, 1].  A map that several channels share is added
    once per channel: the orientation channels share one, so orientation
    weighs 4.  The output has the maps' shape, the frame's, which every
    map must share.
    """
    if set(conspicuity_maps) != set(ChannelId):
        missing = set(ChannelId) - set(conspicuity_maps)
        raise DimensionError(f"missing channels: {sorted(c.value for c in missing)}")
    shapes = {map_.shape for map_ in conspicuity_maps.values()}
    if len(shapes) != 1:
        raise DimensionError(f"conspicuity maps disagree on their shape: {sorted(shapes)}")
    total = np.zeros(*shapes)
    for cid in ChannelId:
        total += conspicuity_maps[cid]
    return rescale_to_range(total)
