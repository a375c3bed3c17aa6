"""Proto-object grouping: edges, center-surround, border ownership.

Within one feature channel and one pyramid level the chain is:

1. complex (contrast-invariant) edge responses per orientation from the
   quadrature kernel pairs;
2. ON/OFF center-surround responses (OFF is the inverted ON response,
   rectified after inversion);
3. von Mises association-field filtering of ON/OFF (or their sum; see
   below) on both sides of every orientation, then summed across
   pyramid levels (coarser levels contribute with weight halved per
   level of separation);
4. border-ownership responses: the edge response gated multiplicatively
   by the side's center-surround evidence, with the light and dark
   paths summed for polarity invariance;
5. winner masks per side, and grouping activity that integrates masked
   border-ownership annularly toward the owned side while the opposing
   side inhibits with the paper's unit weight: own minus opposing.

Per level, the intermediates are arrays with named leading axes over a
block of b orientations: edges (b, h, w) [theta], von Mises responses
(b, 2, p, h, w) [theta, side, polarity], border ownership and masks
(b, 2, h, w) [theta, side]; theta follows ``THETAS``, side is (left,
right) and polarity (ON, OFF), p = 2, or their sum, p = 1 (see below).
All are float64 except the masks, which are boolean.

``grouping_pyramid`` is the one chain body for every backend, and it
works in place where the hardware does.  P3 keeps, per level, the
level's shared form (below) and its P4 input: (ON, OFF), or the shared
form of their sum (below).  P4-P7 then run once per block of
orientations.  P4 fills one von Mises stack per level and P5 writes each
summed series back into it.  P6 forms each orientation's edges from the
shared level just before its border-ownership step, so one edge map is
alive at a time, and writes ownership over the stack's first polarity
(``border_ownership``).  P7 adds the block's grouping sum into a
per-level running total, and after the last block one finishing step
rectifies each total (``_grouping_maps``).  No edge stack, no ownership
stack and no float mask stack stand beside the von Mises one.  A block's
stacks are freed before the next block's are made; the last block frees
the P4 inputs after its P4 and the shared forms after its P6, so P7 adds
only the boolean masks, an eighth of a float stack, and per-map
temporaries.  Each orientation's ownership pair is computed on its own,
and P7's totals add theta then side in any partition, so every block
size gives the same bits.  The shared path's blocks hold one orientation
and its stacks 2 series a level, not 8: a warm gray 640x480 step peaks
at 21.5 maps of the frame's size, where one block of four peaked at
29.3.  The general path's one block of four keeps arrays the reduced
modes' heap reuses from frame to frame; blocks of one free and remake
them four times a channel, and at 112x84 the pages that glibc trims
between them are faulted back in several times as often.

All 2-D correlations use zero padding, matching hardware that reads
absent neighbors as zero.  A map's DC level therefore turns into a band
of border responses.  With kernels of half-width half = size // 2, the
band reaches 2*half px into each level through center-surround and von
Mises filtering (steps 2-3; stages P3-P4 of ``hwmodel``), is scaled by
size_j/size_k when the across-scale sum (P5) carries level k into the
finer level j, plus one px where the resampler has a second tap (the
bilinear one of reference mode), and grows by another half px in the
grouping correlation (step 5; P7).

``correlate`` sums these correlations directly for the 5x5 banks of the
reduced modes and takes the FFT for the 11x11 reference banks, where it
is 2-3 times faster on every level size (``FFT_MIN_KERNEL``); the two
agree up to rounding.  The FFT pads each axis of length n to a fast
length of at least n + size // 2, the least that keeps the circular
product's wrap-around out of the 'same' window (``_fft_shape``).

Within one ``grouping_pyramid`` call a map that several kernels meet is
shared among them in the form the backend's ``share`` makes of it: a
level by its 8 edge kernels and the center-surround kernel, each von
Mises input by the 8 von Mises kernels.  A level's form is made once,
read by the center-surround kernel in P3-P4 and by the edge kernels in
P6, and kept in between: at 640x480 the 10 level spectra take 5.4 MB,
where every level's edges took 19.6 MB.  On the general path a von
Mises input's form is dropped before the next is made, ON's before
OFF's; the shared path keeps each level's ON + OFF spectrum for its four
blocks, as many bytes again as the level spectra.  At FFT sizes the
float backend shares the map's spectrum; a kernel meets one map a level
per stage, so its spectrum is made where it is used
(``_kernel_spectrum``).  The fixed-point backend shares the map's row
stack, its 5 column-shifted copies zero-padded as the board's line
buffers hold them (``hwmodel.row_stack``), and each kernel reduces it
with one small matrix product; the maps of P7, which meet one kernel
each, are laid out the same way one at a time.  Its words are integers
that sum exactly in any order, so this keeps every fixed-point bit.  The
float 5x5 path shares nothing and keeps ``ndimage.correlate``'s bits: a
matrix product sums in another order, and while N1 normalization keeps
only strict local maxima (ties and plateaus count as none), a last-bit
change can move a fused map by percent.

The chain has two paths, picked by ``_shares_spectra`` alone.  The
shared path is the float backend with FFT-sized kernels: reference mode.
The general path (fixed point or direct 5x5) keeps ON and OFF apart with
their rects and runs P7 per correlation, so the fixed-point backend
rounds after each one as the hardware does.  The shared path differs in
three ways:

- ON and OFF are summed before the von Mises stage.  Border ownership
  is rect(edge*vm_on) + rect(edge*vm_off), and there every factor is
  non-negative: edges are magnitudes, ON and OFF are rectified, the
  von Mises kernels are (``GroupingBanks`` admits no negative tap), and
  so are the across-scale sum's weights (the pyramids' bilinear and
  1-tap resamplers, halving).  Both rects are then identities and
  correlation and P5 are linear, so the sum is edge*P5(corr(ON + OFF,
  k)), equal up to rounding; and ON + OFF is |cs| bit for bit, since one
  of the two is exactly 0.  P5 then sums 8 series per channel, not 16.
- Grouping (P7) is summed in the frequency domain: corr(m*bo_own, k) -
  corr(m*bo_other, k) = corr(m*(bo_own - bo_other), k), so the sum over
  theta and both sides takes one inverse transform per level (on the
  direct 5x5 path it would change the float maps' bits).
- Its P4-P7 blocks hold one orientation each (above), and P7's running
  total is a spectrum, inverted once after the last block.

A level of one channel takes 10 forward and 18 inverse real transforms
and 25 kernel spectra.  Every spectral product is map spectrum times
kernel spectrum, in that order, in one place (``_spectral_product``), so
sharing a map spectrum never changes a bit: numpy's complex product is
not bitwise commutative (with FMA, about a third of a*b differ from b*a
in the last bit), and numpy computes ``a * b`` as ``b * a`` when b is a
temporary of 256 KiB or more.

Every stage takes an ``arith`` backend, with no default: ``FLOAT`` or the
hardware's ``hwmodel.FixedArith``.  The filters of P3 and P6 take one
``GroupingBanks``, those of P4 and P7 a block's (b, 2, k, k) von Mises
kernels.
"""
from __future__ import annotations

import functools

import numpy as np
from scipy import ndimage, sparse
from scipy.fft import irfft2, next_fast_len, rfft2

from .errors import DimensionError
from .kernels import THETAS, GroupingBanks
from .pyramid import ImagePyramid

#: Smallest kernel side that ``correlate`` runs through the FFT.  Measured
#: on one thread over 30x40 to 640x480 maps, direct correlation wins at
#: 5x5 on every size, 7x7 is mixed, and the FFT wins at 9x9 and 11x11 on
#: every size (11x11 at 640x480: 12-16 ms against 29-35 ms).
FFT_MIN_KERNEL = 9


def _fft_shape(map_shape, kernel_shape) -> tuple:
    """Padded shape of the FFT correlation: per axis, a fast length N of
    at least n + k // 2, the least that keeps wrap-around out of the
    'same' window.

    A circular product of length N is the linear one (indices 0 to
    n + k - 2) with index i + N folded onto i.  The window starts at
    k - 1 - k // 2, so no folded index reaches it while
    N + k - 1 - k // 2 > n + k - 2.  The full linear length, n + k - 1,
    pads k - 1 - k // 2 more than that (5 px for 11x11 kernels).
    """
    return tuple(next_fast_len(n + k // 2, real=True) for n, k in zip(map_shape, kernel_shape))


def _shares_spectra(arith, size: int) -> bool:
    """The one path predicate: float backend and FFT-sized kernels (the shared path)."""
    return arith is FLOAT and size >= FFT_MIN_KERNEL


@functools.lru_cache(maxsize=None)
def _dft_slab(n: int, k: int, m: int) -> np.ndarray:
    """Rows :m, columns :k of the n-point DFT matrix; index products mod n."""
    slab = np.exp(-2j * np.pi * (np.multiply.outer(np.arange(m), np.arange(k)) % n) / n)
    slab.flags.writeable = False
    return slab


class _Spectrum:
    """Real FFT of a map zero-padded to ``fft_shape``; ``shape`` is the
    map's, so it stands in for the map in ``correlate``."""

    def __init__(self, map_, fft_shape):
        self.shape = map_.shape
        self.fft_shape = fft_shape
        self.values = rfft2(map_, fft_shape)


def _kernel_spectrum(kernel, fft_shape) -> np.ndarray:
    """Real FFT of the flipped ``kernel`` zero-padded to ``fft_shape``, as
    F_H[:, :kh] @ flip(k) @ F_W[:kw, :W//2+1] over cached DFT slabs: within
    1.1e-15 of ``rfft2``'s maximum for the 11x11 banks at 640x480 levels."""
    (h, w), (kh, kw) = fft_shape, kernel.shape
    return _dft_slab(h, kh, h) @ kernel[::-1, ::-1] @ _dft_slab(w, kw, w // 2 + 1).T


def _spectral_product(map_, kernel, fft_shape) -> np.ndarray:
    """The spectrum of ``map_`` (shared if it is a ``_Spectrum``) times
    that of ``kernel``, in that order (see the module docstring)."""
    if not isinstance(map_, _Spectrum):
        map_ = _Spectrum(map_, fft_shape)
    elif map_.fft_shape != fft_shape:
        raise DimensionError(f"spectrum padded to {map_.fft_shape}, correlation needs {fft_shape}")
    return np.multiply(map_.values, _kernel_spectrum(kernel, fft_shape))


def _same_window(product, fft_shape, shape, kernel_shape) -> np.ndarray:
    """The 'same' (h, w) window of the inverse transform of a spectral product."""
    full = irfft2(product, fft_shape)
    # ndimage centres a kernel on index k // 2; flipped, that is k - 1 - k // 2
    (h, w), (kh, kw) = shape, kernel_shape
    y0, x0 = kh - 1 - kh // 2, kw - 1 - kw // 2
    return full[y0 : y0 + h, x0 : x0 + w]


def correlate(map_: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Zero-padded 2-D correlation.

    Kernels with a side below ``FFT_MIN_KERNEL`` (the 5x5 banks of the
    reduced modes) take the direct sum of ``ndimage.correlate``.  Larger
    ones (the 11x11 reference banks) take the FFT: map and flipped
    kernel are zero-padded to a fast length of at least (h + kh // 2,
    w + kw // 2), where the circular product's wrap-around stays outside
    the 'same' window (``_fft_shape``), and that window is cut from it.
    That equals the direct sum up to rounding: at most 2.4e-15 measured
    on uniform [0, 1) maps from 20x28 to 640x480 with the 11x11 banks.
    Where the direct sum is exactly zero, the FFT leaves noise of that
    size.

    On the FFT path the map may instead be a ``_Spectrum`` that the chain
    shares (``FloatArith.share``): a level's, and its ON + OFF evidence's,
    which ``grouping_pyramid`` keeps for every orientation block's
    ``von_mises_filter``.  It is the spectrum
    the call would have made, and it meets the kernel's in the one
    map-first product (``_spectral_product``), so the result is the same
    bits.
    """
    if not isinstance(map_, _Spectrum):
        map_ = np.asarray(map_, dtype=np.float64)
    kh, kw = kernel.shape
    if min(kh, kw) < FFT_MIN_KERNEL:
        return ndimage.correlate(map_, kernel, mode="constant", cval=0.0)
    fft_shape = _fft_shape(map_.shape, kernel.shape)
    product = _spectral_product(map_, kernel, fft_shape)
    return _same_window(product, fft_shape, map_.shape, kernel.shape)


def _rect(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


class FloatArith:
    """The float64 backend; ``hwmodel.FixedArith`` is the fixed-point one.

    A backend moves maps into and out of its number format (``ingest``,
    where ``oriented`` marks the gray input of the orientation channels,
    and ``finish``) and supplies the chain's arithmetic: ``share`` of a
    map among the kernels that meet it, ``correlate`` (zero-padded),
    ``magnitude`` sqrt(e^2 + o^2), ``modulate`` (the border-ownership
    product), ``halve`` n times, and ``clip`` of a stage result into
    range.  P7's unit-weight inhibition is a plain subtraction.
    """

    def ingest(self, map_, oriented: bool):
        return map_

    def finish(self, map_):
        return map_

    def share(self, map_, size: int):
        """The form of ``map_`` its size x size kernels share: its spectrum
        at FFT sizes, else the map itself (see the module docstring).  A
        spectrum is already shared and comes back as it is."""
        if size < FFT_MIN_KERNEL or isinstance(map_, _Spectrum):
            return map_
        return _Spectrum(map_, _fft_shape(map_.shape, (size, size)))

    def correlate(self, map_, kernel):
        return correlate(map_, kernel)

    def magnitude(self, even, odd):
        return np.sqrt(even * even + odd * odd)

    def modulate(self, edge, evidence):
        return edge * evidence

    def halve(self, x, n: int):
        return (2.0 ** -n) * x

    def clip(self, x):
        return x


FLOAT = FloatArith()


def _check_size(map_: np.ndarray, size: int) -> None:
    if map_.shape[0] < size or map_.shape[1] < size:
        raise DimensionError(f"map {map_.shape} smaller than kernel {size}x{size}")


def complex_edges(map_: np.ndarray, pairs: np.ndarray, arith) -> np.ndarray:
    """Complex responses sqrt(e^2 + o^2) to a stack of even/odd kernel
    pairs, shape (len(pairs) // 2, h, w): (4, h, w) [theta] for
    banks.p3[:8], one orientation's edge for banks.p3[2 * ti : 2 * ti + 2]."""
    _check_size(map_, pairs.shape[-1])
    out = np.empty((len(pairs) // 2, *map_.shape))
    for i, (even, odd) in enumerate(zip(pairs[::2], pairs[1::2])):
        out[i] = arith.magnitude(arith.correlate(map_, even), arith.correlate(map_, odd))
    return out


def center_surround(map_: np.ndarray, banks: GroupingBanks, arith):
    """(ON, OFF) responses to banks.p3[8]; inversion happens before rectification."""
    _check_size(map_, banks.size)
    resp = arith.correlate(map_, banks.p3[8])
    return _rect(resp), _rect(-resp)


def von_mises_filter(polarities, vm, arith) -> np.ndarray:
    """The responses of one level's polarity maps to a block's von Mises
    kernels ``vm``, (b, 2, k, k) [theta, side]: shape (b, 2, p, h, w)
    [theta, side (left, right), polarity] for the p maps of ``polarities``.

    ``grouping_pyramid`` passes (ON, OFF), p = 2, on the general path and
    the shared form of ON + OFF, p = 1, on the shared path, which
    ``border_ownership`` reads as their summed evidence (see the module
    docstring).  Each polarity is shared among the block's kernels in the
    backend's form (``share``).
    """
    out = np.empty((len(vm), 2, len(polarities), *polarities[0].shape))
    for p, map_ in enumerate(polarities):
        # one shared form per polarity, dropped before the next is made
        evidence = arith.share(map_, vm.shape[-1])
        for ti, side in np.ndindex(vm.shape[:2]):
            out[ti, side, p] = arith.correlate(evidence, vm[ti, side])
        del evidence
    return out


@functools.lru_cache(maxsize=None)
def _sum_operators(axis, shapes: tuple, j: int):
    """Cached operators of ``von_mises_sum`` into level j of these shapes:
    the column operators X_k = axis(w_k, w_j) for every k > j, and the
    row operator [I | Y_{j+1} | ...] with Y_k = axis(h_k, h_j)."""
    h, w = shapes[j]
    coarser = shapes[j + 1 :]
    cols = tuple(axis(wk, w) for _, wk in coarser)
    rows = sparse.hstack(
        [sparse.identity(h, format="csr")] + [axis(hk, h) for hk, _ in coarser], format="csr"
    )
    return cols, rows


def von_mises_sum(levels, axis, arith):
    """Across-scale accumulation of one response pyramid.

    out[j] = sum over k >= j of 2**-(k - j) * levels[k] resampled to
    level j, so a level keeps its own response and gains coarser context
    with weight halved per level of separation (in place in hardware).

    ``axis(n_in, n_out)``, the pyramid's ``ImagePyramid.axis``, resamples
    along one axis as a sparse matrix: ``bilinear_axis`` in reference
    mode, the 1-tap ``shift_axis`` in the reduced modes.  Each coarser
    level k is halved in the backend's arithmetic and resampled along x
    (X_k), the results are stacked below level j, and one cached row
    operator [I | Y_{j+1} | ...] resamples along y and sums.  Level j
    sits first in the stack so that each sum starts from it and adds the
    coarser levels finest first: the order of the pairwise
    ``nn_shift_resample`` loop, whose bits the reduced modes keep
    (fixed-point words are integers and sum exactly in any order).  With
    bilinear weights the sum equals that loop within 1.6e-15 on uniform
    [0, 1) levels of the 640x480 reference shapes.
    """
    shapes = tuple(level.shape for level in levels)
    out = []
    for j, base in enumerate(levels):
        cols, rows = _sum_operators(axis, shapes, j)
        # level j's rows, then each coarser level's block, written in place
        stack = np.empty((rows.shape[1], base.shape[1]))
        top = len(base)
        stack[:top] = base
        for n, (x, level) in enumerate(zip(cols, levels[j + 1 :]), 1):
            stack[top : top + len(level)] = (x @ arith.halve(level, n).T).T
            top += len(level)
        out.append(arith.clip(rows @ stack))
    return out


def border_ownership(edges, vm_summed_levels, arith) -> list:
    """Border-ownership responses from edges and summed side evidence.

    Takes per level the edges, one (h, w) map per orientation of the
    block, and the (b, 2, p, h, w) summed von Mises responses of
    ``von_mises_filter`` for the same b orientations, and returns per
    level a (b, 2, h, w) array [theta, side].  A level's edges may be a
    (b, h, w) array or an iterator that forms each orientation's only
    when it is read, as ``grouping_pyramid`` passes them on the general
    path: then one edge map is alive at a time.  For each orientation and
    side, the light (ON) and dark (OFF) paths are rectified separately
    and summed, ON first, which makes the result invariant to stimulus
    polarity outside the zero-padding band described in the module
    docstring.  With p = 1 the one path holds their summed evidence.

    The von Mises input is overwritten, as P5's sum is in hardware: each
    (theta, side) result goes into ``vm[theta, side, 0]``, after both of
    its polarities are read, and the returned arrays are those views.
    """
    out = []
    for edges_l, vm_l in zip(edges, vm_summed_levels):
        for ti, edge in enumerate(edges_l):
            for side, evidence in enumerate(vm_l[ti]):
                paths = (_rect(arith.modulate(edge, vm)) for vm in evidence)
                vm_l[ti, side, 0] = arith.clip(functools.reduce(np.add, paths))
            del edge  # freed before the next orientation's edge is formed
        out.append(vm_l[:, :, 0])
    return out


def bo_masks(bo_levels) -> list:
    """Boolean winner masks, per level a (b, 2, h, w) array [theta, side]
    for the b orientations of ``bo_levels``; ties go left.

    Exactly one side wins everywhere, so masking is a multiply: True
    weighs 1.0 and False 0.0.
    """
    out = []
    for bo in bo_levels:
        masks = np.empty(bo.shape, dtype=bool)
        np.greater_equal(bo[:, 0], bo[:, 1], out=masks[:, 0])
        np.logical_not(masks[:, 0], out=masks[:, 1])
        out.append(masks)
    return out


def grouping_activity(masks, bo_levels, vm, arith, totals) -> list:
    """Per level, ``totals`` plus one block's grouping sum over theta,
    before rectification; ``_grouping_maps`` finishes the totals of every
    block.

    ``masks`` and ``bo_levels`` hold per level a (b, 2, h, w) array
    [theta, side] for the b orientations of the block's von Mises kernels
    ``vm``, (b, 2, k, k).  The annular integration pushes masked
    border-ownership activity toward the owned side, which for a kernel
    pointing at direction d means correlating with the opposite-side
    kernel (a true convolution): side s correlates with vm[theta, 1 - s],
    P4's stack with the sides swapped.  The same-location opposing
    response, masked and integrated alike, inhibits with unit weight: it
    is subtracted.  On the general path a total is a map that adds the
    correlations in the backend's arithmetic; on the shared path it is a
    spectrum that adds one product per side, theta then side (see the
    module docstring).
    """
    size = vm.shape[-1]
    spectral = _shares_spectra(arith, size)
    out = []
    for mask, bo, total in zip(masks, bo_levels, totals):
        fft_shape = _fft_shape(bo.shape[2:], (size, size))
        # conv with one side's kernel == corr with the other side's
        for ti, kernels in enumerate(vm[:, ::-1]):
            if spectral:
                for own, kern in enumerate(kernels):
                    grp = mask[ti, own] * (bo[ti, own] - bo[ti, 1 - own])
                    total = total + _spectral_product(grp, kern, fft_shape)
            else:
                grp_left, grp_right = (
                    arith.correlate(mask[ti, own] * bo[ti, own], kern)
                    - arith.correlate(mask[ti, own] * bo[ti, 1 - own], kern)
                    for own, kern in enumerate(kernels)
                )
                total = total + (grp_left + grp_right)
        out.append(total)
    return out


def _grouping_maps(totals, shapes, size: int, arith) -> list:
    """Per level, the grouping map rect(sum over theta of GrpSum) from P7's
    total over every block: clipped into range, on the shared path after
    one inverse transform of its spectrum."""
    if _shares_spectra(arith, size):
        kernel_shape = (size, size)
        totals = (_same_window(total, _fft_shape(shape, kernel_shape), shape, kernel_shape)
                  for total, shape in zip(totals, shapes))
    return [_rect(arith.clip(total)) for total in totals]


def _edges_by_theta(shared, banks: GroupingBanks, thetas: range, arith):
    """A level's complex edges for the block's orientations ``thetas``,
    each formed from the level's shared form only when
    ``border_ownership`` reads it."""
    for ti in thetas:
        yield complex_edges(shared, banks.p3[2 * ti : 2 * ti + 2], arith)[0]


def grouping_pyramid(channel_pyr: ImagePyramid, banks: GroupingBanks, arith):
    """Full grouping chain for one channel's pyramid.

    The pyramid and the banks hold numbers in the backend's format (raw
    words for the fixed-point backend), as do the per-level grouping maps
    it returns, finest first.  P3 keeps each level's shared form and its
    P4 input; P4-P7 then run once per block of orientations, one block of
    four on the general path and four of one on the shared path
    (``_shares_spectra``), and P7's per-level totals carry from block to
    block (see the module docstring).  P5 reads the levels through the
    pyramid's ``axis`` (``von_mises_sum``); its weights, and the banks'
    von Mises taps, are non-negative, as the shared path needs.
    """
    size = banks.size
    spectral = _shares_spectra(arith, size)
    shared, inputs = [], []
    for level in channel_pyr.levels:
        # the level's shared form, for its center-surround kernel now and
        # its edge kernels in P6
        shared.append(arith.share(level, size))
        on, off = center_surround(shared[-1], banks, arith)
        inputs.append((arith.share(on + off, size),) if spectral else (on, off))
    del on, off
    thetas = range(len(THETAS))
    blocks = [thetas[ti : ti + 1] for ti in thetas] if spectral else [thetas]
    totals = [0.0] * len(shared)
    for block in blocks:
        vm_banks = banks.vm[block.start : block.stop]
        vm = [von_mises_filter(polarities, vm_banks, arith) for polarities in inputs]
        if block is blocks[-1]:
            inputs.clear()
        for idx in np.ndindex(vm[0].shape[:3]):
            # one (theta, side, polarity) series, summed across levels in place
            series = [v[idx] for v in vm]
            for vm_l, summed in zip(vm, von_mises_sum(series, channel_pyr.axis, arith)):
                vm_l[idx] = summed
        edges = (_edges_by_theta(s, banks, block, arith) for s in shared)
        bo = border_ownership(edges, vm, arith)  # written over vm
        if block is blocks[-1]:
            shared.clear()
        totals = grouping_activity(bo_masks(bo), bo, vm_banks, arith, totals)
        del edges, vm, bo, series  # the stacks, freed before the next block's are made
    return _grouping_maps(totals, [level.shape for level in channel_pyr.levels], size, arith)
