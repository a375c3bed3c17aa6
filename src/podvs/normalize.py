"""Map normalization operators and final saliency fusion.

The first operator (N1) multiplies a map globally by (m - mbar)**2,
where m is the global maximum and mbar the average of the other local
maxima: maps dominated by a single peak are promoted, maps with many
comparable peaks are suppressed.  The second operator (N2) first
rescales the map to a fixed range so that channels of different
modality compete fairly, then applies the same peak statistic.

The local maxima behind that statistic are set by the ``EngineConfig``
fields ``maxima_radius`` (neighborhood radius) and ``maxima_threshold``
(fraction of the global maximum), which the config checks once.
"""
from __future__ import annotations

import numpy as np
from scipy import ndimage

from .channels import ChannelId
from .config import EngineConfig
from .errors import DimensionError
from .pyramid import ImagePyramid, collapse


def local_maxima(map_: np.ndarray, cfg: EngineConfig = EngineConfig()):
    """Pixels strictly above every neighbor within ``cfg.maxima_radius``.

    Only peaks reaching ``cfg.maxima_threshold`` * global_max are kept.
    Returns a list of (x, y, value); on a constant map there are no
    strict maxima and the list is empty.
    """
    map_ = np.asarray(map_, dtype=np.float64)
    if map_.size == 0:
        raise DimensionError("empty map")
    radius = cfg.maxima_radius
    footprint = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
    footprint[radius, radius] = False
    neighbor_max = ndimage.maximum_filter(
        map_, footprint=footprint, mode="constant", cval=-np.inf
    )
    floor = cfg.maxima_threshold * float(map_.max())
    ys, xs = np.nonzero((map_ > neighbor_max) & (map_ >= floor))
    return [(int(x), int(y), float(map_[y, x])) for y, x in zip(ys, xs)]


def _peak_factor(map_: np.ndarray, cfg: EngineConfig) -> float:
    m = float(map_.max())
    values = [v for _, _, v in local_maxima(map_, cfg)]
    # One instance at the global maximum belongs to m itself; the rest
    # are the "other" maxima.  A plateau global max never enters values.
    if m in values:
        values.remove(m)
    mbar = float(np.mean(values)) if values else 0.0
    return (m - mbar) ** 2


def normalize_n1(map_: np.ndarray, cfg: EngineConfig = EngineConfig()) -> np.ndarray:
    """Promote single-peak maps: map * (m - mbar)**2."""
    map_ = np.asarray(map_, dtype=np.float64)
    return map_ * _peak_factor(map_, cfg)


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


def normalize_n2(map_: np.ndarray, cfg: EngineConfig = EngineConfig()) -> np.ndarray:
    """Range-normalize to [0, 1], then apply the N1 statistic.

    The rescale step makes the operator invariant to any positive
    affine transform of the input, so channels with incomparable units
    can be fused.
    """
    return normalize_n1(rescale_to_range(map_), cfg)


def fuse(grouping_pyramids: dict, cfg: EngineConfig) -> np.ndarray:
    """Conspicuity formation and linear fusion into one saliency map.

    Per channel: N1 on every pyramid level, collapse to the base
    resolution, N2 on the conspicuity map; the nine results are summed
    in fixed channel order and the final map rescaled to [0, 1].
    Channels that share one pyramid object share one conspicuity map,
    still added once per channel: the orientation channels, and the
    all-zero channels, which ``Pipeline.step`` in reference mode does not
    group but gives one pyramid of zeros (the reduced modes wait until
    the benchmark's tests stop pinning their correlation counts).  A
    pyramid with no non-zero pixel on any level (in every mode, the
    opponency channels of a gray frame) normalizes to zeros without the
    work: N1 scales each level by (0 - 0)**2, and N2's rescale maps a
    constant conspicuity map to zeros.
    """
    if set(grouping_pyramids) != set(ChannelId):
        missing = set(ChannelId) - set(grouping_pyramids)
        raise DimensionError(f"missing channels: {sorted(c.value for c in missing)}")
    total = np.zeros((cfg.height, cfg.width), dtype=np.float64)
    done = []  # (pyramid, normalized conspicuity map) pairs
    for cid in ChannelId:
        pyramid = grouping_pyramids[cid]
        normalized = next((m for p, m in done if p is pyramid), None)
        if normalized is None:
            if any(level.any() for level in pyramid):
                levels = [normalize_n1(level, cfg) for level in pyramid]
                conspicuity = collapse(ImagePyramid(tuple(levels)), cfg.height, cfg.width)
                normalized = normalize_n2(conspicuity, cfg)
            else:
                normalized = np.zeros((cfg.height, cfg.width))
            done.append((pyramid, normalized))
        total += normalized
    return rescale_to_range(total)
