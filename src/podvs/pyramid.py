"""Multi-resolution decomposition and across-scale collapse.

Two pyramid flavors, the levels of every mode:

* reference: ``REFERENCE_DEPTH`` levels shrinking by sqrt(2) from the base
  resolution (rounded half-up), resampled with bilinear interpolation;
* hardware: the three level sizes of each reduced mode (``HW_LEVELS``),
  subsampled nearest-neighbor with the source address computed by the
  frozen shift-based multiply approximation below (every level reads
  directly from the root image, as the parallel downsamplers do).

The shift table maps (src_dim, dst_dim) to (Q, s) with Q/2**s the
closest Q <= 65535 approximation of src/dst; a target index x reads
source index (x*Q) >> s.  Because Q may sit just below the exact ratio,
the address occasionally lands one pixel before the exact rational
floor(x*src/dst); those deviations are deterministic and frozen.
"""
from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import DimensionError

#: Frozen (src_dim, dst_dim) -> (Q, s) address-scaling constants.
SHIFT_TABLE = {
    # downsampling, 112x84 root
    (112, 80): (45875, 15),
    (84, 60): (45875, 15),
    (112, 56): (32768, 14),
    (84, 44): (62557, 15),
    # downsampling, 80x60 root
    (80, 56): (46811, 15),
    (60, 44): (44684, 15),
    (80, 40): (32768, 14),
    (60, 30): (32768, 14),
    # upsampling (coarse level read from a finer grid)
    (80, 112): (46811, 16),
    (60, 84): (46811, 16),
    (56, 112): (32768, 16),
    (44, 84): (34328, 16),
    (56, 80): (45875, 16),
    (44, 60): (48060, 16),
    (40, 80): (32768, 16),
    (30, 60): (32768, 16),
    (40, 56): (46811, 16),
    (30, 44): (44684, 16),
}

#: Hardware pyramid level sizes (width, height), finest first.
HW_LEVELS = {
    (112, 84): ((112, 84), (80, 60), (56, 44)),
    (80, 60): ((80, 60), (56, 44), (40, 30)),
}
#: Reference pyramid levels, shrinking by sqrt(2) (``reference_level_dims``).
REFERENCE_DEPTH = 10


def shift_params(src_dim: int, dst_dim: int):
    """Derive the (Q, s) pair; SHIFT_TABLE holds the frozen results."""
    ratio = src_dim / dst_dim
    s = 0
    while round(ratio * (1 << (s + 1))) <= 0xFFFF:
        s += 1
    return round(ratio * (1 << s)), s


def shift_index(x, src_dim: int, dst_dim: int):
    """Source index for target index x under the frozen approximation."""
    q, s = SHIFT_TABLE[(src_dim, dst_dim)]
    return (np.asarray(x, dtype=np.int64) * q) >> s


def reference_level_dims(width: int, height: int, depth: int):
    """(width, height) per level, shrinking by sqrt(2), rounded half-up."""
    dims = []
    for i in range(depth):
        scale = 2.0 ** (-i / 2.0)
        dims.append(
            (int(np.floor(width * scale + 0.5)), int(np.floor(height * scale + 0.5)))
        )
    return dims


def bilinear_resize(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Pixel-center-aligned bilinear resample to (out_h, out_w): the
    ``bilinear_axis`` operators, along x first and then along y."""
    src = np.asarray(src, dtype=np.float64)
    in_h, in_w = src.shape
    if out_h == in_h and out_w == in_w:
        return src.copy()
    return bilinear_axis(in_h, out_h) @ (bilinear_axis(in_w, out_w) @ src.T).T


@functools.lru_cache(maxsize=None)
def bilinear_axis(n_in: int, n_out: int) -> sparse.csr_matrix:
    """Bilinear resampling along one axis as an (n_out, n_in) matrix with
    two taps per row, 1 - w then w.

    ``bilinear_resize`` applies it along x, then y.  That equals the
    four-neighbour gather (x-interpolate the top and bottom rows, then y)
    bit for bit, as each row of a sparse product adds its two products
    in the gather's order; this rests on scipy's sparse kernels not
    fusing them into multiply-adds (FMA).  ``tests/test_pyramid.py`` pins
    it: the pyramid build and ``collapse`` feed the strict comparisons of
    ``normalize.local_maxima``.  Cached per shape; the matrix is shared,
    so treat it as read-only.
    """
    pos = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
    i0 = np.floor(pos).astype(np.int64)
    i1 = np.minimum(i0 + 1, n_in - 1)
    w = pos - i0
    rows = np.arange(n_out)
    return sparse.csr_matrix(
        (np.concatenate([1 - w, w]), (np.concatenate([rows, rows]), np.concatenate([i0, i1]))),
        shape=(n_out, n_in),
    )


@dataclass(frozen=True)
class ImagePyramid:
    """Ordered stack of maps, level 0 finest; strictly shrinking.  The
    across-scale sum reads them through ``axis``, the resampler they were
    built with: ``shift_axis`` (hardware) or ``bilinear_axis`` (others)."""

    levels: tuple
    axis: Callable[[int, int], sparse.csr_matrix] = bilinear_axis

    def __post_init__(self):
        if not self.levels:
            raise DimensionError("pyramid must have at least one level")
        for fine, coarse in zip(self.levels, self.levels[1:]):
            if not (coarse.shape[0] < fine.shape[0] and coarse.shape[1] < fine.shape[1]):
                raise DimensionError(
                    f"levels must strictly shrink: {fine.shape} -> {coarse.shape}"
                )

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, i):
        return self.levels[i]


def build_reference_pyramid(map_: np.ndarray, depth: int) -> ImagePyramid:
    """sqrt(2)-step bilinear pyramid with `depth` levels."""
    map_ = np.asarray(map_, dtype=np.float64)
    h, w = map_.shape
    dims = reference_level_dims(w, h, depth)
    if any(dw < 2 or dh < 2 for dw, dh in dims):
        raise DimensionError(
            f"depth {depth} would shrink {w}x{h} below 2x2"
        )
    levels = [map_]
    for dw, dh in dims[1:]:
        levels.append(bilinear_resize(map_, dh, dw))
    return ImagePyramid(tuple(levels))


def hw_level_sizes(width: int, height: int):
    try:
        return HW_LEVELS[(width, height)]
    except KeyError:
        raise DimensionError(
            f"no hardware pyramid defined for {width}x{height}"
        ) from None


def nn_shift_resample(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resample through the frozen shift addresses."""
    in_h, in_w = src.shape
    rows = shift_index(np.arange(out_h), in_h, out_h)
    cols = shift_index(np.arange(out_w), in_w, out_w)
    return src[np.ix_(rows, cols)]


@functools.lru_cache(maxsize=None)
def shift_axis(n_in: int, n_out: int) -> sparse.csr_matrix:
    """``nn_shift_resample`` along one axis as an (n_out, n_in) selection
    matrix; cached and shared like ``bilinear_axis``."""
    rows = np.arange(n_out)
    cols = shift_index(rows, n_in, n_out)
    return sparse.csr_matrix((np.ones(n_out), (rows, cols)), shape=(n_out, n_in))


def build_hw_pyramid(map_: np.ndarray) -> ImagePyramid:
    """Three-level hardware pyramid; every level reads from the root."""
    h, w = map_.shape
    sizes = hw_level_sizes(w, h)
    levels = [np.asarray(map_)]
    for dw, dh in sizes[1:]:
        levels.append(nn_shift_resample(levels[0], dh, dw))
    return ImagePyramid(tuple(levels), shift_axis)


def collapse(levels, out_h: int, out_w: int) -> np.ndarray:
    """Bilinearly rescale every level (of any sequence) to one size and sum."""
    acc = np.zeros((out_h, out_w), dtype=np.float64)
    for level in levels:
        acc += bilinear_resize(level, out_h, out_w)
    return acc

