import functools
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from scipy import ndimage

from podvs import grouping
from podvs.channels import ChannelId
from podvs.config import EngineConfig, Resolution
from podvs.errors import DimensionError
from podvs.grouping import (
    FLOAT,
    bo_masks,
    border_ownership,
    center_surround,
    complex_edges,
    correlate,
    grouping_activity,
    grouping_pyramid,
    von_mises_filter,
    von_mises_sum,
)
from podvs.hwmodel import FixedArith, HwPipeline
from podvs.kernels import THETAS, build_banks
from podvs.pipeline import Pipeline, build_channel_pyramid
from podvs.pyramid import (
    HW_LEVELS,
    ImagePyramid,
    bilinear_axis,
    build_hw_pyramid,
    build_reference_pyramid,
    nn_shift_resample,
    reference_level_dims,
    shift_axis,
)

from conftest import gather_bilinear

SPEC = importlib.util.spec_from_file_location(
    "peaks", Path(__file__).resolve().parent.parent / "tools" / "peaks.py")
peaks = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(peaks)

SPEC = importlib.util.spec_from_file_location(
    "bench_workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
workloads = sys.modules[SPEC.name] = importlib.util.module_from_spec(SPEC)  # for its dataclasses
SPEC.loader.exec_module(workloads)

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: SHA-256 of a 240x320 map's reference grouping levels at depth 6.
REFERENCE_DIGEST = """
import hashlib
import numpy as np
from podvs.grouping import FLOAT, grouping_pyramid
from podvs.kernels import build_banks
from podvs.pyramid import build_reference_pyramid
m = np.random.default_rng(40).uniform(0, 255, size=(240, 320))
levels = grouping_pyramid(build_reference_pyramid(m, 6), build_banks(11), FLOAT)
print(hashlib.sha256(b"".join(level.tobytes() for level in levels)).hexdigest())
"""

#: SHA-256 of the fixed-point grouping levels of a seeded 112x84 map of
#: words, and the words saturated on the way.
FIXED_DIGEST = """
import hashlib
import numpy as np
from podvs.config import EngineConfig, Resolution
from podvs.grouping import grouping_pyramid
from podvs.hwmodel import FixedArith, HwPipeline
from podvs.pyramid import build_hw_pyramid
cfg = EngineConfig(resolution=Resolution.HW_112)
arith = FixedArith(cfg)
words = np.random.default_rng(44).integers(-(1 << 16), 1 << 16, size=(84, 112)).astype(float)
levels = grouping_pyramid(build_hw_pyramid(words), HwPipeline(cfg).banks, arith)
print(hashlib.sha256(b"".join(level.tobytes() for level in levels)).hexdigest(), arith.saturations)
"""
#: ``FIXED_DIGEST``'s output, recorded when the fixed-point MAC was
#: ``ndimage.correlate`` alone.  Words are integers and sum exactly, so it
#: holds on every platform and in every order of summation.
FIXED_DIGEST_PIN = "0d0d684f2cfb10f7ecee435fad8f57192c3e1987d5bafec8e2565a979b0b84ed 187"


def run_at_blas_threads(script: str) -> list:
    """``script``'s standard output in a process per BLAS thread count,
    1 and 2: BLAS reads its thread count at start-up."""
    src = str(Path(grouping.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src}
        env.update(dict.fromkeys(BLAS_THREAD_VARS, threads))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        outputs.append(proc.stdout.strip())
    return outputs


@pytest.fixture(scope="module")
def banks5():
    return build_banks(5)


@pytest.fixture(scope="module")
def banks11():
    return build_banks(11)


def pairwise_von_mises_sum(levels, axis, arith):
    """``von_mises_sum``'s oracle: one gather resample per level pair,
    halved and added to level j in the backend's arithmetic, and written
    into level j as ``von_mises_sum`` writes its sums."""
    upsample = gather_bilinear if axis is bilinear_axis else nn_shift_resample
    for j, base in enumerate(levels):
        acc = arith.halve(base, 0)  # a copy, in the backend's type
        h, w = base.shape
        for k in range(j + 1, len(levels)):
            acc += arith.halve(upsample(levels[k], h, w), k - j)
        base[...] = arith.clip(acc)
    return levels


#: The grouping chains of the reduced and the reference modes: bank size,
#: map shape, pyramid, and the px that the pyramid's across-scale axis
#: adds to ``zero_pad_reach`` with its second tap (none for the 1-tap shift).
CHAINS = {
    "5x5-shift": (5, (60, 80), build_hw_pyramid, 0),
    "11x11-bilinear": (11, (120, 160), lambda m: build_reference_pyramid(m, 3), 1),
}


def vstack_von_mises_sum(levels, axis, arith):
    """``von_mises_sum`` as it stacked the coarser blocks: a list of
    blocks below level j, joined by ``np.vstack``."""
    shapes = tuple(level.shape for level in levels)
    out = []
    for j, base in enumerate(levels):
        cols, rows = grouping._sum_operators(axis, shapes, j)
        coarser = zip(cols, levels[j + 1 :])
        blocks = [(x @ arith.halve(level, n).T).T for n, (x, level) in enumerate(coarser, 1)]
        out.append(arith.clip(rows @ np.vstack([base, *blocks])))
    return out


def finished_grouping(bo_levels, banks, arith):
    """P7 over one block of every orientation, level by level with each
    level's masks, finished as ``grouping_pyramid`` finishes its totals."""
    return [grouping._grouping_map(grouping_activity(bo_masks(bo), bo, banks.vm, arith, 0.0),
                                   bo.shape[2:], banks.size, arith)
            for bo in bo_levels]


def ownership_from_edges(edges, vm, arith):
    """``border_ownership`` of one level from its block's edges, formed
    beforehand, written over ``vm`` as the chain writes it."""
    for ti, side in np.ndindex(vm.shape[:2]):
        paths = [np.maximum(arith.modulate(edges[ti], evidence), 0) for evidence in vm[ti, side]]
        vm[ti, side, 0] = arith.clip(functools.reduce(np.add, paths))
    return vm[:, :, 0]


def prior_order_grouping(pyr, banks, arith, block):
    """``grouping_pyramid`` in the order that formed every level's edges
    in P3, before its center-surround response, and kept them through P5
    for border ownership, with P4-P7 run over blocks of ``block``
    orientations."""
    edges, inputs = [], []
    for level in pyr.levels:
        shared = arith.share(level, banks.size)
        edges.append(complex_edges(shared, banks.p3[:8], arith))
        on, off = center_surround(shared, banks, arith)
        inputs.append((on + off,) if grouping._shares_spectra(arith, banks.size) else (on, off))
    totals = [0.0] * len(edges)
    for start in range(0, len(THETAS), block):
        vm_banks = banks.vm[start : start + block]
        vm = [von_mises_filter(polarities, vm_banks, arith) for polarities in inputs]
        for idx in np.ndindex(vm[0].shape[:3]):
            series = [v[idx] for v in vm]
            for vm_l, summed in zip(vm, vstack_von_mises_sum(series, pyr.axis, arith)):
                vm_l[idx] = summed
        for lvl, (edges_l, vm_l) in enumerate(zip(edges, vm)):
            bo = ownership_from_edges(edges_l[start : start + block], vm_l, arith)
            totals[lvl] = grouping_activity(bo_masks(bo), bo, vm_banks, arith, totals[lvl])
    return [grouping._grouping_map(total, level.shape, banks.size, arith)
            for total, level in zip(totals, pyr.levels)]


def interior(map_, margin):
    return map_[margin:-margin, margin:-margin]


def zero_pad_reach(shapes, size):
    """Per level, how far in from the frame edge zero padding reaches in
    the grouping maps of a pyramid with these level shapes.

    Center-surround and von Mises filtering (P3-P4) each spread the border
    band by half a kernel; the across-scale sum (P5) scales level k's band
    by size_j/size_k into level j; grouping (P7) adds another half.  A
    resampler with a second tap (bilinear) reaches one px further, which
    this does not count.
    """
    half = size // 2
    return [
        max(math.ceil(2 * half * max(hj / hk, wj / wk)) for hk, wk in shapes[j:]) + half
        for j, (hj, wj) in enumerate(shapes)
    ]


def pair_share(toward, away, x):
    """Net ownership toward one side over the pixel pair (x - 1, x) that
    straddles a vertical border, as a share of the pair's total."""
    t, a = toward[x - 1 : x + 1].sum(), away[x - 1 : x + 1].sum()
    return (t - a) / (t + a)


def naive_correlate(map_, kern):
    """Zero-padded correlation as an explicit quadruple loop."""
    h, w = map_.shape
    k = kern.shape[0]
    half = k // 2
    out = np.zeros_like(map_, dtype=np.float64)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(k):
                for dx in range(k):
                    yy, xx = y + dy - half, x + dx - half
                    if 0 <= yy < h and 0 <= xx < w:
                        acc += kern[dy, dx] * map_[yy, xx]
            out[y, x] = acc
    return out


class TestCorrelate:
    def test_matches_naive(self, banks5):
        rng = np.random.default_rng(21)
        for _ in range(5):
            m = rng.random((9, 11))
            for kern in (banks5.p3[2], banks5.vm[2, 0], banks5.p3[8]):
                np.testing.assert_allclose(
                    correlate(m, kern), naive_correlate(m, kern), atol=1e-12
                )

    def test_fft_path_matches_naive_at_11x11(self, banks11):
        # also with the map's spectrum shared, as the chain passes it
        assert banks11.size >= grouping.FFT_MIN_KERNEL
        rng = np.random.default_rng(32)
        for shape in ((13, 17), (24, 11)):
            m = rng.random(shape)
            fft_shape = grouping._fft_shape(shape, (banks11.size, banks11.size))
            shared_map = grouping._Spectrum(m, fft_shape)
            for kern in (banks11.p3[2], banks11.p3[7],
                         banks11.vm[2, 0], banks11.p3[8]):
                expected = naive_correlate(m, kern)
                for map_ in (m, shared_map):
                    np.testing.assert_allclose(correlate(map_, kern), expected, atol=1e-12)

    def test_shared_map_spectrum_is_bit_neutral_at_reference_size(self, banks11):
        # numpy's complex product is not bitwise commutative, and from 256
        # KiB on it computes named * temporary as temporary * named; so a
        # shared spectrum keeps the bits only with one product order, and
        # only maps this large show it
        kernels = banks11.kernels
        assert len(kernels) == 17
        m = np.random.default_rng(44).uniform(0, 255, size=(480, 640))
        shared = grouping._Spectrum(m, grouping._fft_shape(m.shape, (banks11.size, banks11.size)))
        assert shared.values.nbytes >= 256 * 1024
        for kern in kernels:
            assert correlate(shared, kern).tobytes() == correlate(m, kern).tobytes()

    def test_fft_padding_is_the_least_without_wrap_around(self):
        # A corner-delta kernel shifts the map by the full half-width, as
        # far as any kernel tap reaches.  At 21x28 the padding (27, 36) is
        # below the full linear length's fast length (32, 40), and one px
        # less than n + k // 2 (25, 32) is a fast length itself, so a pad
        # one px short would fold the map's far edge into the window.
        shape, size = (21, 28), 11
        fft_shape = grouping._fft_shape(shape, (size, size))
        assert all(n >= m + size // 2 for n, m in zip(fft_shape, shape))
        assert all(n < scipy.fft.next_fast_len(m + size - 1, real=True)
                   for n, m in zip(fft_shape, shape))
        assert all(scipy.fft.next_fast_len(m + size // 2 - 1, real=True) == m + size // 2 - 1
                   for m in shape)
        m = np.random.default_rng(41).uniform(1.0, 2.0, size=shape)
        for y, x in ((0, 0), (0, size - 1), (size - 1, 0), (size - 1, size - 1)):
            kern = np.zeros((size, size))
            kern[y, x] = 1.0
            np.testing.assert_allclose(
                correlate(m, kern), ndimage.correlate(m, kern, mode="constant", cval=0.0),
                atol=1e-12,
            )

    def test_kernel_spectra_match_rfft2_at_reference_level_shapes(self, banks11):
        # a kernel's spectrum is a product with cached DFT slabs; the
        # padded rfft2 it replaces is the oracle
        kernels = banks11.kernels
        assert len(kernels) == 17
        for w, h in reference_level_dims(640, 480, 10):
            fft_shape = grouping._fft_shape((h, w), (banks11.size, banks11.size))
            for kern in kernels:
                expected = scipy.fft.rfft2(kern[::-1, ::-1], fft_shape)
                got = grouping._kernel_spectrum(kern, fft_shape)
                assert got.shape == expected.shape
                assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_spectrum_of_another_padding_rejected(self, banks11):
        m = np.random.default_rng(37).random((13, 17))
        other = grouping._Spectrum(m, grouping._fft_shape((30, 17), (11, 11)))
        with pytest.raises(DimensionError):
            correlate(other, banks11.p3[8])

    def test_direct_path_bit_identical_at_5x5(self, banks5):
        assert banks5.size < grouping.FFT_MIN_KERNEL
        m = np.random.default_rng(33).random((60, 80))
        for kern in (banks5.p3[2], banks5.vm[2, 0], banks5.p3[8]):
            np.testing.assert_array_equal(
                correlate(m, kern), ndimage.correlate(m, kern, mode="constant", cval=0.0)
            )


class TestComplexEdges:
    def test_constant_map_silent_interior(self, banks5):
        edges = complex_edges(np.full((20, 20), 50.0), banks5.p3[:8], FLOAT)
        assert edges.shape == (4, 20, 20)
        for e in edges:
            assert np.max(np.abs(interior(e, 3))) < 1e-9

    def test_vertical_step_prefers_vertical_orientation(self, banks5):
        m = np.zeros((21, 21))
        m[:, 11:] = 100.0
        edges = complex_edges(m, banks5.p3[:8], FLOAT)
        ti = THETAS.index(np.pi / 2)
        col = 10
        responses = [e[10, col] for e in edges]
        assert int(np.argmax(responses)) == ti

    def test_horizontal_step_prefers_horizontal_orientation(self, banks5):
        m = np.zeros((21, 21))
        m[11:, :] = 100.0
        edges = complex_edges(m, banks5.p3[:8], FLOAT)
        responses = [e[10, 10] for e in edges]
        assert int(np.argmax(responses)) == THETAS.index(0.0)

    def test_polarity_invariant(self, banks5):
        rng = np.random.default_rng(22)
        m = rng.uniform(0, 200, size=(16, 16))
        a = complex_edges(m, banks5.p3[:8], FLOAT)
        b = complex_edges(200.0 - m, banks5.p3[:8], FLOAT)
        for ea, eb in zip(a, b):
            np.testing.assert_allclose(interior(ea, 3), interior(eb, 3), atol=1e-9)

    def test_map_smaller_than_kernel_rejected(self, banks5):
        with pytest.raises(DimensionError):
            complex_edges(np.zeros((3, 3)), banks5.p3[:8], FLOAT)


class TestCenterSurround:
    def test_constant_map_silent_interior(self, banks5):
        on, off = center_surround(np.full((16, 16), 80.0), banks5, FLOAT)
        assert np.max(interior(on, 3)) < 1e-9
        assert np.max(interior(off, 3)) < 1e-9

    def test_bright_dot_drives_on(self, banks5):
        m = np.zeros((15, 15))
        m[7, 7] = 100.0
        on, off = center_surround(m, banks5, FLOAT)
        assert on[7, 7] > 0
        assert off[7, 7] == 0.0
        np.testing.assert_allclose(on[7, 7], (banks5.p3[8][2, 2] * 100.0), atol=1e-9)

    def test_dark_dot_drives_off(self, banks5):
        m = np.full((15, 15), 100.0)
        m[7, 7] = 0.0
        on, off = center_surround(m, banks5, FLOAT)
        assert off[7, 7] > 0
        assert on[7, 7] == 0.0

    def test_off_is_inverted_on(self, banks5):
        rng = np.random.default_rng(23)
        m = rng.random((12, 12)) * 50
        on, off = center_surround(m, banks5, FLOAT)
        resp = correlate(m, banks5.p3[8])
        np.testing.assert_allclose(on - off, resp, atol=1e-12)
        assert np.all((on == 0) | (off == 0))


class TestVonMisesFilter:
    def test_axes_are_theta_side_polarity(self, banks5, banks11):
        # the polarity axis holds one response per map passed: (ON, OFF)
        # on the general path, ON + OFF on the shared path (float, 11x11)
        rng = np.random.default_rng(36)
        on, off = rng.random((2, 9, 11))
        fixed = FixedArith(EngineConfig(resolution=Resolution.REFERENCE))
        cases = [
            (banks11, FLOAT, (on + off,)),
            (banks5, FLOAT, (on, off)),
            (banks11, fixed, (on, off)),
        ]
        for banks, arith, polarities in cases:
            out = von_mises_filter(polarities, banks.vm, arith)
            assert out.shape == (4, 2, len(polarities), 9, 11)
            for ti in range(4):
                for side, kern in enumerate((banks.vm[ti, 0], banks.vm[ti, 1])):
                    for p, evidence in enumerate(polarities):
                        np.testing.assert_array_equal(out[ti, side, p],
                                                      arith.correlate(evidence, kern))

    def test_an_orientation_block_reads_the_kept_evidence_spectrum(self, banks11):
        # the shared path passes one orientation at a time, with the
        # spectrum of ON + OFF that it keeps for all four
        on, off = np.random.default_rng(49).random((2, 9, 11))
        full = von_mises_filter((on + off,), banks11.vm, FLOAT)
        evidence = FLOAT.share(on + off, banks11.size)
        for ti in range(len(THETAS)):
            out = von_mises_filter((evidence,), banks11.vm[ti : ti + 1], FLOAT)
            assert out.tobytes() == full[ti : ti + 1].tobytes()


class TestVonMisesSum:
    def test_single_level_identity(self):
        level = np.random.default_rng(24).random((8, 8))
        out = von_mises_sum([level.copy()], bilinear_axis, FLOAT)
        np.testing.assert_array_equal(out[0], level)

    def test_zero_coarse_level_identity_on_fine(self):
        rng = np.random.default_rng(25)
        fine = rng.random((8, 8))
        out = von_mises_sum([fine.copy(), np.zeros((5, 5))], bilinear_axis, FLOAT)
        np.testing.assert_allclose(out[0], fine, atol=1e-15)

    def test_constant_levels_closed_form(self):
        levels = [np.full((8, 8), 1.0), np.full((6, 6), 2.0), np.full((4, 4), 4.0)]
        out = von_mises_sum(levels, bilinear_axis, FLOAT)
        # weight 2**-(k-j): level 0 gets 1 + 2/2 + 4/4, level 1 gets 2 + 4/2
        np.testing.assert_allclose(out[0], 3.0, atol=1e-12)
        np.testing.assert_allclose(out[1], 4.0, atol=1e-12)
        np.testing.assert_allclose(out[2], 4.0, atol=1e-12)

    def test_custom_upsampler(self):
        levels = [np.zeros((60, 80)), np.arange(44 * 56, dtype=float).reshape(44, 56)]
        expected = 0.5 * nn_shift_resample(levels[1], 60, 80)
        out = von_mises_sum(levels, axis=shift_axis, arith=FLOAT)
        np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_fused_bilinear_sum_matches_pairwise_on_reference_shapes(self):
        rng = np.random.default_rng(34)
        levels = [rng.random((h, w)) for w, h in reference_level_dims(640, 480, 10)]
        fused = von_mises_sum([level.copy() for level in levels], bilinear_axis, FLOAT)
        oracle = pairwise_von_mises_sum(levels, bilinear_axis, FLOAT)
        for a, b in zip(fused, oracle):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("root", sorted(HW_LEVELS))
    def test_shift_sum_bit_identical_to_pairwise_in_float(self, root):
        # non-integer floats: any change in the order of the additions
        # (level j first, then the coarser levels finest first) shows
        rng = np.random.default_rng(40)
        levels = [rng.random((h, w)) for w, h in HW_LEVELS[root]]
        for a, b in zip(von_mises_sum([level.copy() for level in levels], shift_axis, FLOAT),
                        pairwise_von_mises_sum(levels, shift_axis, FLOAT)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("root", sorted(HW_LEVELS))
    def test_shift_sum_bit_identical_to_pairwise_in_fixed_point(self, root):
        # full-range words, so the sums saturate; the words and the
        # saturation tally must both match
        cfg = EngineConfig(resolution=Resolution.HW_80)
        fast, slow = FixedArith(cfg), FixedArith(cfg)
        fmt = fast.fmt
        rng = np.random.default_rng(41)
        levels = [rng.integers(fmt.min_raw, fmt.max_raw + 1, size=(h, w)).astype(np.float64)
                  for w, h in HW_LEVELS[root]]
        for a, b in zip(von_mises_sum([level.copy() for level in levels], shift_axis, fast),
                        pairwise_von_mises_sum(levels, shift_axis, slow)):
            np.testing.assert_array_equal(a, b)
        assert fast.saturations == slow.saturations > 0


class TestBorderOwnership:
    def _run(self, map_, banks, depth=3):
        """The field at every level, computed as reference mode does: a
        sqrt(2) pyramid and the bilinear across-scale von Mises sum."""
        pyr = build_reference_pyramid(map_, depth)
        vm = []
        for level in pyr.levels:
            on, off = center_surround(level, banks, FLOAT)
            vm.append(von_mises_filter((on, off), banks.vm, FLOAT))
        for idx in np.ndindex(vm[0].shape[:3]):
            von_mises_sum([r[idx] for r in vm], bilinear_axis, FLOAT)
        return [border_ownership(level, banks.p3[:8], summed, FLOAT)
                for level, summed in zip(pyr.levels, vm)]

    @staticmethod
    def _light_square():
        m = np.zeros((24, 24))
        m[6:18, 8:20] = 100.0
        return m

    def test_zero_center_surround_means_zero_ownership(self, banks5):
        m = np.zeros((12, 12))
        silent = np.zeros((4, 2, 2, 12, 12))
        field = border_ownership(m, banks5.p3[:8], silent, FLOAT)
        assert field.shape == (4, 2, 12, 12)
        assert np.all(field == 0.0)

    def test_light_square_left_border_owned_rightward(self, banks5):
        field = self._run(self._light_square(), banks5)
        ti = THETAS.index(np.pi / 2)
        left, right = field[0][ti, 0, 12], field[0][ti, 1, 12]
        # the square's left border lies between x = 7 and 8; the object
        # lies to its right
        assert pair_share(right, left, 8) >= 0.05
        # and its right border, between x = 19 and 20, to the left
        assert pair_share(left, right, 20) >= 0.05

    def test_single_level_field_mirrors_about_straight_edge(self, banks5):
        # One 5x5 level reaches 4 px (center-surround 2 plus von Mises 2),
        # short of the square's corners from row 12.  The banks are mirror
        # images and the light and dark paths are summed, so the field is
        # mirror-symmetric about the edge at x = 7.5: a single pixel there
        # tells which side of the edge it sits on, not where the figure is.
        field = self._run(self._light_square(), banks5, depth=1)
        ti = THETAS.index(np.pi / 2)
        left, right = field[0][ti, 0, 12], field[0][ti, 1, 12]
        assert left[8] == pytest.approx(right[7], abs=1e-9)
        assert right[8] == pytest.approx(left[7], abs=1e-9)

    @pytest.mark.parametrize("size", [5, 11])
    def test_written_over_the_von_mises_stack(self, size):
        # each (theta, side) result goes into vm[theta, side, 0] once both
        # polarities are read (p = 2 at 5x5, p = 1 at 11x11 in float)
        banks = build_banks(size)
        m = self._light_square()
        edges = complex_edges(m, banks.p3[:8], FLOAT)
        on, off = center_surround(m, banks, FLOAT)
        polarities = (on + off,) if size == 11 else (on, off)
        vm = von_mises_filter(polarities, banks.vm, FLOAT)
        evidence = vm.copy()
        bo = border_ownership(m, banks.p3[:8], vm, FLOAT)
        assert np.shares_memory(bo, vm)
        expected = np.maximum(edges[:, None, None] * evidence, 0.0).sum(axis=2)
        np.testing.assert_array_equal(bo, expected)

    @pytest.mark.parametrize("backend", ["float-11x11", "fixed-5x5"])
    def test_same_bytes_from_the_map_as_from_its_shared_form(self, backend):
        # the chain passes P6 a level's shared form: a spectrum in float
        # at 11x11, a row stack in fixed point.  Its edges are the bits
        # the map's own would be, with the same words saturated
        rng = np.random.default_rng(51)
        if backend == "float-11x11":
            m = rng.uniform(0, 255, size=(30, 40))
            banks, ariths = build_banks(11), (FLOAT, FLOAT, FLOAT)
        else:
            # words of up to 17 bits, so some saturate (as in FIXED_DIGEST)
            cfg = EngineConfig(resolution=Resolution.HW_112)
            m = rng.integers(-(1 << 16), 1 << 16, size=(30, 40)).astype(float)
            banks, ariths = HwPipeline(cfg).banks, [FixedArith(cfg) for _ in range(3)]
        arith, from_map, from_shared = ariths
        vm = von_mises_filter(center_surround(m, banks, arith), banks.vm, arith)
        shared = from_shared.share(m, banks.size)
        assert isinstance(shared, grouping._Spectrum) == (backend == "float-11x11")
        assert shared is not m
        a = border_ownership(m, banks.p3[:8], vm.copy(), from_map)
        b = border_ownership(shared, banks.p3[:8], vm.copy(), from_shared)
        assert a.tobytes() == b.tobytes()
        if arith is not FLOAT:
            assert from_map.saturations == from_shared.saturations > 0

    def test_polarity_swap_preserves_sums(self, banks5):
        rng = np.random.default_rng(26)
        m = rng.uniform(0, 100, size=(16, 16))
        on, off = center_surround(m, banks5, FLOAT)
        vm_a = von_mises_filter((on, off), banks5.vm, FLOAT)
        vm_b = von_mises_filter((off, on), banks5.vm, FLOAT)
        fa = border_ownership(m, banks5.p3[:8], vm_a, FLOAT)
        fb = border_ownership(m, banks5.p3[:8], vm_b, FLOAT)
        for ti in range(4):
            for side in range(2):
                np.testing.assert_allclose(fa[ti, side], fb[ti, side], atol=1e-9)


def stack_sides(left, right):
    """A (4, 2, h, w) [theta, side] array from per-orientation maps."""
    return np.stack([np.stack(sides) for sides in zip(left, right)])


class TestMasks:
    def test_tie_goes_left(self):
        b = np.full((5, 5), 2.0)
        masks = bo_masks(stack_sides((b,), (b.copy(),)))
        assert np.all(masks[0, 0] == 1.0)
        assert np.all(masks[0, 1] == 0.0)

    def test_zero_left_loses_except_zero_ties(self):
        left = np.zeros((4, 4))
        right = np.zeros((4, 4))
        right[1:, :] = 3.0
        masks = bo_masks(stack_sides((left,), (right,)))
        assert np.all(masks[0, 1][1:, :] == 1.0)
        assert np.all(masks[0, 0][0, :] == 1.0)  # 0 >= 0 tie

    def test_boolean_masks_weigh_as_the_float_ones(self):
        # True * x is 1.0 * x and False * x is 0.0 * x, signed zeros too
        rng = np.random.default_rng(42)
        field = rng.standard_normal((4, 2, 6, 6))
        masks = bo_masks(field)
        assert masks.dtype == bool
        as_float = masks.astype(np.float64)
        assert (masks * field).tobytes() == (as_float * field).tobytes()

    def test_partition(self):
        rng = np.random.default_rng(27)
        field = [rng.random((4, 2, 6, 6)) for _ in range(2)]
        masks = [bo_masks(bo) for bo in field]
        for lvl in range(2):
            assert masks[lvl].shape == (4, 2, 6, 6)
            # exactly one side wins: on bool masks '+' is a logical OR,
            # so count the winners as integers
            np.testing.assert_array_equal(
                masks[lvl].sum(axis=1, dtype=int), np.ones((4, 6, 6), int)
            )


class TestGroupingActivity:
    def _field(self, rng, shape=(14, 14), levels=1):
        return [rng.random((len(THETAS), 2, *shape)) for _ in range(levels)]

    def test_zero_field_zero_grouping(self, banks5):
        field = [np.zeros((4, 2, 8, 8))]
        out = finished_grouping(field, banks5, FLOAT)
        assert np.all(out[0] == 0.0)

    def test_own_minus_opposing(self, banks5):
        # per theta and side, the masked own response integrated toward
        # the owned side, minus the masked opposing one: unit inhibition
        rng = np.random.default_rng(28)
        field = self._field(rng)
        masks = bo_masks(field[0])
        out = finished_grouping(field, banks5, FLOAT)
        expected = np.zeros((14, 14))
        for ti in range(4):
            for own, kern in enumerate((banks5.vm[ti, 1], banks5.vm[ti, 0])):
                mask, bo = masks[ti, own], field[0][ti]
                expected += correlate(mask * bo[own], kern) - correlate(mask * bo[1 - own], kern)
        np.testing.assert_allclose(out[0], np.maximum(expected, 0.0), atol=1e-12)

    def test_positive_scaling_covariance(self, banks5):
        rng = np.random.default_rng(29)
        field = self._field(rng)
        scaled = [3.0 * bo for bo in field]
        a = finished_grouping(field, banks5, FLOAT)
        b = finished_grouping(scaled, banks5, FLOAT)
        np.testing.assert_allclose(b[0], 3.0 * a[0], atol=1e-9)

    def test_losing_side_contributes_only_inhibition(self, banks5):
        # where the left mask wins everywhere, the right response enters
        # only through the subtracted term, so it can only lower the
        # left side's own sum
        rng = np.random.default_rng(30)
        bl = rng.random((10, 10)) + 2.0
        br = rng.random((10, 10))  # strictly smaller
        field = [stack_sides((bl,) * 4, (br,) * 4)]
        out = finished_grouping(field, banks5, FLOAT)[0]
        own_only = sum(correlate(bl, banks5.vm[ti, 1]) for ti in range(4))
        assert np.all(out <= own_only + 1e-12)
        assert np.any(out < own_only - 1e-3)

    def test_frequency_domain_sum_matches_direct_at_11x11(self, banks11, monkeypatch):
        # the shared path sums P7 over theta and both sides as spectra;
        # the oracle makes the 16 direct correlations of each level
        rng = np.random.default_rng(38)
        field = [rng.random((len(THETAS), 2, *shape)) for shape in ((23, 31), (24, 32))]
        fast = finished_grouping(field, banks11, FLOAT)
        monkeypatch.setattr(grouping, "FFT_MIN_KERNEL", banks11.size + 1)
        oracle = finished_grouping(field, banks11, FLOAT)
        for a, b in zip(fast, oracle):
            scale = np.max(np.abs(b))
            assert scale > 0
            assert np.max(np.abs(a - b)) <= 1e-12 * scale


class TestGroupingPyramid:
    def test_isolated_square_peaks_inside(self, banks5):
        m = np.zeros((60, 80))
        m[22:38, 30:46] = 120.0
        pyr = ImagePyramid((m,), bilinear_axis)
        out = grouping_pyramid(pyr, banks5, FLOAT)
        y, x = np.unravel_index(np.argmax(out[0]), out[0].shape)
        assert 22 <= y < 38
        assert 30 <= x < 46

    def test_hw_pyramid_sums_through_its_shift_addresses(self, banks5, monkeypatch):
        # the pyramid carries its resampler: grouped without naming one, a
        # hardware pyramid's across-scale sum reads the frozen shift
        # addresses, as the pairwise nearest-neighbour loop does
        m = np.random.default_rng(46).uniform(0, 120, size=(60, 80))
        grouped = grouping_pyramid(build_hw_pyramid(m), banks5, FLOAT)
        def shift_sum(levels, axis, arith):
            return pairwise_von_mises_sum(levels, shift_axis, arith)
        monkeypatch.setattr(grouping, "von_mises_sum", shift_sum)
        oracle = grouping_pyramid(build_hw_pyramid(m), banks5, FLOAT)
        for a, b in zip(grouped, oracle):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_polarity_invariance_interior(self, chain):
        size, shape, build, second_tap = CHAINS[chain]
        banks = build_banks(size)
        rng = np.random.default_rng(31)
        m = rng.uniform(0, 120, size=shape)
        out_a = grouping_pyramid(build(m), banks, FLOAT)
        out_b = grouping_pyramid(build(120.0 - m), banks, FLOAT)
        # zero padding turns the input's DC offset of 120 into a border
        # band; invariance holds outside it
        margins = zero_pad_reach([a.shape for a in out_a], size)
        for a, b, margin in zip(out_a, out_b, margins):
            margin += second_tap
            np.testing.assert_allclose(
                interior(a, margin), interior(b, margin), atol=1e-6
            )

    def test_reference_chain_is_mirror_symmetric(self, banks11):
        # the model prefers no side: the grouping maps of a flipped input
        # are the flipped maps (the reduced modes' 5x5 chain on shift
        # addresses misses this by up to half a level's maximum)
        rng = np.random.default_rng(50)
        m = 40.0 + rng.uniform(0, 5, size=(84, 112))
        m[24:60, 36:76] += 120.0
        levels = grouping_pyramid(build_reference_pyramid(m, 6), banks11, FLOAT)
        for flip in (np.fliplr, np.flipud):
            flipped = grouping_pyramid(build_reference_pyramid(flip(m), 6), banks11, FLOAT)
            for level, mirrored in zip(levels, flipped):
                scale = np.max(level)
                assert scale > 0
                assert np.max(np.abs(flip(level) - mirrored)) <= 1e-12 * scale

    def test_reference_chain_calls_every_grouping_layer_the_benchmark_traces(
            self, banks11, monkeypatch):
        # the traced ref640_float run is correct only if each of these
        # layers records calls; a chain that bypasses one fails here too
        calls = dict.fromkeys(workloads._GROUPING, 0)

        def counting(layer, fn):
            def counted(*args, **kwargs):
                calls[layer] += 1
                return fn(*args, **kwargs)
            return counted

        for layer in calls:
            module, name = layer.split(".")
            assert module == "grouping"
            monkeypatch.setattr(grouping, name, counting(layer, getattr(grouping, name)))
        m = np.random.default_rng(48).uniform(0, 255, size=(120, 160))
        grouping_pyramid(build_reference_pyramid(m, 3), banks11, FLOAT)
        assert [layer for layer, n in calls.items() if n == 0] == []

    def test_reference_chain_peak_memory(self):
        # border ownership is written over the von Mises stack, the masks
        # are boolean, P6 forms one orientation's edges at a time, and
        # P4-P7 run one orientation at a time, so a call holds one
        # orientation's von Mises stack and no second same-size stack
        # beside it (8.25x the pyramid's bytes measured; 8.97x with the
        # float edge magnitudes and P7's spectral products not formed in
        # place, 13.1x with every orientation's stack alive from P4 to P7
        # as well, 15.0x with every level's edges also formed before P5)
        assert peaks.chain_peak(*peaks.chains()["reference"]) <= 10

    @pytest.mark.parametrize("chain", sorted(CHAINS) + ["5x5-shift-fixed"])
    def test_bit_identical_to_the_chain_that_formed_edges_first(self, chain):
        # P6 forms each level's edges from its shared form orientation by
        # orientation, and P5 fills one stack per level: the same
        # operations on the same values as forming every level's edges
        # before P5 and joining P5's blocks with np.vstack.  Each chain
        # matches that oracle with P4-P7 over one block of four
        # orientations and over four blocks of one, whichever it runs
        if chain in CHAINS:
            size, shape, build, _ = CHAINS[chain]
            pyr = build(np.random.default_rng(47).uniform(0, 255, size=shape))
            banks, arith = build_banks(size), FLOAT
            oracle_ariths = {1: FLOAT, 4: FLOAT}
        else:
            # words of up to 17 bits, so some saturate (as in FIXED_DIGEST)
            cfg = EngineConfig(resolution=Resolution.HW_112)
            words = np.random.default_rng(44).integers(-(1 << 16), 1 << 16, size=(84, 112))
            pyr, banks = build_hw_pyramid(words.astype(float)), HwPipeline(cfg).banks
            arith = FixedArith(cfg)
            oracle_ariths = {1: FixedArith(cfg), 4: FixedArith(cfg)}
        got = grouping_pyramid(pyr, banks, arith)
        for block, oracle_arith in oracle_ariths.items():
            expected = prior_order_grouping(pyr, banks, oracle_arith, block)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in expected]
            if arith is not FLOAT:
                assert arith.saturations == oracle_arith.saturations > 0

    def test_reference_chain_matches_slow_oracle(self, banks11, monkeypatch):
        # the reference chain (11x11 banks, sqrt(2) pyramid, bilinear sum)
        # through FFT correlation, ON + OFF summed before the von Mises
        # stage and the sparse sum, against direct correlation, separate
        # polarities and the pairwise gather loop
        rng = np.random.default_rng(35)
        m = ndimage.uniform_filter(rng.uniform(0, 255, size=(72, 96)), 3)
        m[20:50, 30:60] += 80.0
        pyr = build_reference_pyramid(m, 5)
        fast = grouping_pyramid(pyr, banks11, FLOAT)
        monkeypatch.setattr(grouping, "FFT_MIN_KERNEL", banks11.size + 1)
        monkeypatch.setattr(grouping, "von_mises_sum", pairwise_von_mises_sum)
        oracle = grouping_pyramid(pyr, banks11, FLOAT)
        for a, b in zip(fast, oracle):
            scale = np.max(np.abs(b))
            assert scale > 0
            assert np.max(np.abs(a - b)) <= 1e-12 * scale

    def test_reference_chain_bit_identical_with_fft_workers(self, banks11):
        m = np.random.default_rng(39).uniform(0, 255, size=(72, 96))
        pyr = build_reference_pyramid(m, 4)
        single = grouping_pyramid(pyr, banks11, FLOAT)
        with scipy.fft.set_workers(2):
            threaded = grouping_pyramid(pyr, banks11, FLOAT)
        for a, b in zip(single, threaded):
            np.testing.assert_array_equal(a, b)

    def test_reference_chain_bit_identical_with_blas_threads(self):
        # kernel spectra are BLAS complex products
        digests = run_at_blas_threads(REFERENCE_DIGEST)
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]

    def test_fixed_chain_bit_pin_with_blas_threads(self):
        # P3, P4 and P7 reduce row stacks by BLAS matrix products
        assert run_at_blas_threads(FIXED_DIGEST) == [FIXED_DIGEST_PIN] * 2

    def test_fixed_chain_peak_memory(self):
        # every level's row stack stays alive until P6 forms its edges,
        # in place of the edges themselves; ON's is dropped before OFF's
        # is made (27.60x the pyramid's bytes measured; 33.5x if the
        # shared forms outlive P6).  The float 5x5 chain, the general path
        # that shares nothing, is bounded alike (20.57x; 23.2x if the P4
        # inputs outlive P4)
        chains = peaks.chains()
        for name, bound in (("fixed", 32), ("float 5x5", 22.5)):
            assert peaks.chain_peak(*chains[name]) <= bound


def assert_positive_zeros(levels, shapes):
    """Every level has its pyramid level's shape and holds only +0.0."""
    assert [level.shape for level in levels] == list(shapes)
    for level in levels:
        # not np.array_equal(level, 0), which is False for any 2-D array
        assert not level.any()
        assert not np.signbit(level).any()


class TestZeroMap:
    """A zero map groups to +0.0 on every level of every path: the fact
    that lets ``Pipeline.step`` skip all-zero channel maps bit for bit."""

    def test_float_fft_chain(self, banks11):
        pyr = build_reference_pyramid(np.zeros((120, 160)), 5)
        levels = grouping_pyramid(pyr, banks11, FLOAT)
        assert_positive_zeros(levels, [level.shape for level in pyr.levels])

    @pytest.mark.parametrize("oriented", [False, True], ids=["temporal", "oriented"])
    @pytest.mark.parametrize(
        "engine, resolution",
        [(Pipeline, Resolution.HW_80), (HwPipeline, Resolution.HW_112)],
        ids=["float-5x5-hw80", "fixed-hw112"],
    )
    def test_reduced_chains(self, engine, resolution, oriented):
        cfg = EngineConfig(resolution=resolution)
        pipe = engine(cfg)
        zero = np.zeros((cfg.height, cfg.width))
        cid = ChannelId.O_0 if oriented else ChannelId.INTENSITY
        levels = pipe._grouping({cid: zero}, cid)
        shapes = [level.shape for level in build_channel_pyramid(zero, cfg).levels]
        assert_positive_zeros(levels, shapes)
