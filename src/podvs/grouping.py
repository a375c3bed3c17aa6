"""Proto-object grouping: edges, center-surround, border ownership.

Within one feature channel and one pyramid level the chain is:

1. complex (contrast-invariant) edge responses per orientation from the
   quadrature kernel pairs;
2. ON/OFF center-surround responses (OFF is the inverted ON response,
   rectified after inversion);
3. von Mises association-field filtering of ON/OFF on both sides of
   every orientation, then summed across pyramid levels (coarser levels
   contribute with weight halved per level of separation);
4. border-ownership responses: the edge response gated multiplicatively
   by the side's center-surround evidence, with the light and dark
   paths summed for polarity invariance;
5. winner masks per side, and grouping activity that integrates masked
   border-ownership annularly toward the owned side while the opposing
   side inhibits with weight w_p.

All 2-D correlations use zero padding, matching hardware that reads
absent neighbors as zero; edge effects are tolerated and excluded from
evaluation sampling.

Every stage takes an ``arith`` backend: ``FLOAT`` (the default) or the
hardware's fixed point, ``hwmodel.FixedArith``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import DimensionError
from .kernels import THETAS, CenterSurroundBank, EdgeBank, GroupingBanks, VonMisesBank
from .pyramid import ImagePyramid, bilinear_resize


def correlate(map_: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Zero-padded 2-D correlation."""
    return ndimage.correlate(
        np.asarray(map_, dtype=np.float64), kernel, mode="constant", cval=0.0
    )


def _rect(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


class FloatArith:
    """The float64 backend; ``hwmodel.FixedArith`` is the fixed-point one.

    A backend moves maps into and out of its number format (``ingest``,
    where ``oriented`` marks the gray input of the orientation channels,
    and ``finish``) and supplies the chain's arithmetic: ``correlate``
    (zero-padded), ``magnitude`` sqrt(e^2 + o^2), ``modulate`` (the
    border-ownership product), ``weigh`` by w_p, ``halve`` n times, and
    ``clip`` of a stage result into range.
    """

    def ingest(self, map_, oriented: bool):
        return map_

    def finish(self, map_):
        return map_

    def correlate(self, map_, kernel):
        return correlate(map_, kernel)

    def magnitude(self, even, odd):
        return np.sqrt(even * even + odd * odd)

    def modulate(self, edge, evidence):
        return edge * evidence

    def weigh(self, x, w_p: float):
        return w_p * x

    def halve(self, x, n: int):
        return (2.0 ** -n) * x

    def clip(self, x):
        return x


FLOAT = FloatArith()


def _check_size(map_: np.ndarray, size: int) -> None:
    if map_.shape[0] < size or map_.shape[1] < size:
        raise DimensionError(f"map {map_.shape} smaller than kernel {size}x{size}")


def complex_edges(map_: np.ndarray, bank: EdgeBank, arith=FLOAT):
    """Per-orientation complex cell responses sqrt(even^2 + odd^2)."""
    _check_size(map_, bank.size)
    return [
        arith.magnitude(arith.correlate(map_, even), arith.correlate(map_, odd))
        for even, odd in zip(bank.even, bank.odd)
    ]


def center_surround(map_: np.ndarray, bank: CenterSurroundBank, arith=FLOAT):
    """(ON, OFF) responses; inversion happens before rectification."""
    _check_size(map_, bank.size)
    resp = arith.correlate(map_, bank.on)
    return _rect(resp), _rect(-resp)


def von_mises_filter(on: np.ndarray, off: np.ndarray, bank: VonMisesBank,
                     arith=FLOAT) -> dict:
    """The 16 association-field responses of one level.

    Keys are (theta_index, side, polarity) with side in {"left",
    "right"} and polarity in {"on", "off"}.
    """
    out = {}
    for ti in range(len(THETAS)):
        for side, kern in (("left", bank.left[ti]), ("right", bank.right[ti])):
            out[(ti, side, "on")] = arith.correlate(on, kern)
            out[(ti, side, "off")] = arith.correlate(off, kern)
    return out


def von_mises_sum(levels, upsample=bilinear_resize, arith=FLOAT):
    """Across-scale accumulation of one response pyramid.

    out[j] = sum over k >= j of 2**-(k - j) * upsample(levels[k]) so a
    level keeps its own response and gains coarser context with weight
    halved per level of separation.  Results replace the inputs
    (conceptually in place; no extra storage in hardware).
    """
    out = []
    for j, base in enumerate(levels):
        acc = arith.halve(base, 0)  # a copy, in the backend's type
        h, w = base.shape
        for k in range(j + 1, len(levels)):
            acc += arith.halve(upsample(levels[k], h, w), k - j)
        out.append(arith.clip(acc))
    return out


@dataclass(frozen=True)
class BorderOwnershipField:
    """left[level][theta_index] and right[level][theta_index] maps."""

    left: tuple
    right: tuple

    def __post_init__(self):
        if len(self.left) != len(self.right):
            raise DimensionError("left/right level counts disagree")


def border_ownership(edges, vm_summed_levels, arith=FLOAT) -> BorderOwnershipField:
    """Border-ownership responses from edges and summed side evidence.

    For each level and orientation, the light (ON) and dark (OFF) paths
    are rectified separately and summed, which makes the result
    invariant to stimulus polarity.
    """
    def owned(e, vm_l, ti, side):
        on = _rect(arith.modulate(e, vm_l[(ti, side, "on")]))
        off = _rect(arith.modulate(e, vm_l[(ti, side, "off")]))
        return arith.clip(on + off)

    left_levels, right_levels = [], []
    for edges_l, vm_l in zip(edges, vm_summed_levels):
        left_levels.append(tuple(owned(e, vm_l, ti, "left") for ti, e in enumerate(edges_l)))
        right_levels.append(tuple(owned(e, vm_l, ti, "right") for ti, e in enumerate(edges_l)))
    return BorderOwnershipField(tuple(left_levels), tuple(right_levels))


def bo_masks(field: BorderOwnershipField):
    """Binary winner masks per level and orientation; ties go left.

    mask_left + mask_right == 1 everywhere.  Masks take the field's
    element type, so masking is a multiply in either arithmetic.
    """
    masks_left, masks_right = [], []
    for left_l, right_l in zip(field.left, field.right):
        ml, mr = [], []
        for bl, br in zip(left_l, right_l):
            m = (bl >= br).astype(bl.dtype)
            ml.append(m)
            mr.append(1 - m)
        masks_left.append(tuple(ml))
        masks_right.append(tuple(mr))
    return tuple(masks_left), tuple(masks_right)


def grouping_activity(
    masks,
    field: BorderOwnershipField,
    vm: VonMisesBank,
    w_p: float,
    arith=FLOAT,
):
    """Per-level grouping maps rect(sum over theta of GrpSum).

    The annular integration pushes masked border-ownership activity
    toward the owned side, which for a kernel pointing at direction d
    means correlating with the opposite-side kernel (a true
    convolution); the same-location opposing response inhibits with
    weight w_p.
    """
    masks_left, masks_right = masks
    out = []
    for lvl in range(len(field.left)):
        total = None
        for ti in range(len(THETAS)):
            bl = field.left[lvl][ti]
            br = field.right[lvl][ti]
            ml = masks_left[lvl][ti]
            mr = masks_right[lvl][ti]
            # conv with vm.left == corr with vm.right, and vice versa
            grp_left = arith.correlate(ml * bl, vm.right[ti]) - arith.weigh(
                arith.correlate(ml * br, vm.right[ti]), w_p
            )
            grp_right = arith.correlate(mr * br, vm.left[ti]) - arith.weigh(
                arith.correlate(mr * bl, vm.left[ti]), w_p
            )
            grp_sum = grp_left + grp_right
            total = grp_sum if total is None else total + grp_sum
        out.append(_rect(arith.clip(total)))
    return out


def grouping_pyramid(
    channel_pyr: ImagePyramid,
    banks: GroupingBanks,
    w_p: float,
    upsample=bilinear_resize,
    arith=FLOAT,
):
    """Full grouping chain for one channel's pyramid.

    The pyramid and the banks hold numbers in the backend's format (raw
    words for the fixed-point backend).  Returns the per-level grouping
    maps, finest first, in that same format.
    """
    edges = [complex_edges(level, banks.edge, arith) for level in channel_pyr.levels]
    vm_resp = []
    for level in channel_pyr.levels:
        on, off = center_surround(level, banks.cs, arith)
        vm_resp.append(von_mises_filter(on, off, banks.vm, arith))
    keys = vm_resp[0].keys()
    summed = [dict() for _ in vm_resp]
    for key in keys:
        series = von_mises_sum([r[key] for r in vm_resp], upsample, arith)
        for lvl, arr in enumerate(series):
            summed[lvl][key] = arr
    field = border_ownership(edges, summed, arith)
    masks = bo_masks(field)
    return grouping_activity(masks, field, banks.vm, w_p, arith)
