"""The fixed-point backend and the hardware cost ledger."""
import math

import numpy as np
import pytest

from podvs import grouping
from podvs.config import EngineConfig, Resolution
from podvs.errors import ConfigError
from podvs.grouping import bo_masks, center_surround, complex_edges, grouping_activity
from podvs.hwmodel import (
    CHANNEL_PASSES,
    CLOCK_HZ,
    KERNEL_FORMAT,
    FixedArith,
    FixedFormat,
    HwPipeline,
    HwProfile,
    _Flags,
    _isqrt,
    channel_pass_cycles,
    fixed_correlate,
    frame_rate,
    quantize,
    round_shift,
    saturate,
)
from podvs.kernels import KERNEL_NAMES, THETAS, build_banks

#: Level shapes of the two reduced modes (112x84 and 80x60 pyramids).
LEVEL_SHAPES = [(84, 112), (60, 80), (44, 56), (30, 40)]


def mac_loop(raw, kernel, fmt):
    """Zero-padded int64 MAC over the kernel taps, then an int64
    shift-and-carry round half to even and saturation.

    Returns (words, number of saturated words).
    """
    raw = np.asarray(raw, dtype=np.int64)
    k = kernel.shape[0]
    half = k // 2
    padded = np.zeros((raw.shape[0] + 2 * half, raw.shape[1] + 2 * half), dtype=np.int64)
    padded[half:-half, half:-half] = raw
    acc = np.zeros_like(raw)
    h, w = raw.shape
    for dy in range(k):
        for dx in range(k):
            weight = int(kernel[dy, dx])
            if weight:
                acc += weight * padded[dy : dy + h, dx : dx + w]
    shift = KERNEL_FORMAT.fraction_bits
    base = acc >> shift
    rem = acc - (base << shift)
    half_ulp = np.int64(1) << (shift - 1)
    up = (rem > half_ulp) | ((rem == half_ulp) & ((base & 1) == 1))
    out = base + up.astype(np.int64)
    saturated = int(np.count_nonzero((out < fmt.min_raw) | (out > fmt.max_raw)))
    return np.clip(out, fmt.min_raw, fmt.max_raw), saturated


def divmod_round(n: int, shift: int) -> int:
    """n * 2**-shift rounded half to even, in Python ints."""
    if shift <= 0:
        return n << -shift
    q, r = divmod(n, 1 << shift)
    half = 1 << (shift - 1)
    return q + (r > half or (r == half and q % 2 == 1))


def naive_mac(raw, kernel, fmt):
    """Per-pixel zero-padded MAC, round half to even, saturate; Python ints.

    Returns (words, number of saturated words).
    """
    h, w = raw.shape
    k = kernel.shape[0]
    half = k // 2
    shift = KERNEL_FORMAT.fraction_bits
    out = np.zeros((h, w), dtype=np.int64)
    saturated = 0
    for y in range(h):
        for x in range(w):
            acc = 0
            for dy in range(k):
                for dx in range(k):
                    yy, xx = y + dy - half, x + dx - half
                    if 0 <= yy < h and 0 <= xx < w:
                        acc += int(raw[yy, xx]) * int(kernel[dy, dx])
            q, r = divmod(acc, 1 << shift)
            if r > 1 << (shift - 1) or (r == 1 << (shift - 1) and q % 2):
                q += 1
            if not fmt.min_raw <= q <= fmt.max_raw:
                saturated += 1
                q = min(max(q, fmt.min_raw), fmt.max_raw)
            out[y, x] = q
    return out, saturated


@pytest.fixture
def arith(hw80_cfg):
    return FixedArith(hw80_cfg)


@pytest.fixture
def raw_banks(hw80_cfg):
    return HwPipeline(hw80_cfg).banks


@pytest.fixture
def raw_map(arith):
    """Words spanning the whole format, so some edge MAC sums saturate."""
    fmt = arith.fmt
    return np.random.default_rng(51).integers(fmt.min_raw, fmt.max_raw + 1, size=(9, 11))


class TestFixedArith:
    def test_halve_is_floor_shift(self, arith):
        x = np.array([-5, -4, -3, -1, 0, 1, 3, 5], dtype=np.int64)
        np.testing.assert_array_equal(arith.halve(x, 1), [-3, -2, -2, -1, 0, 0, 1, 2])
        np.testing.assert_array_equal(arith.halve(x, 2), np.floor(x / 4).astype(np.int64))

    def test_clip_counts_saturated_words(self, arith):
        top, bottom = arith.fmt.max_raw, arith.fmt.min_raw
        x = np.array([top + 1, top, 0, bottom, bottom - 7, 3 * top], dtype=np.int64)
        np.testing.assert_array_equal(arith.clip(x), [top, top, 0, bottom, bottom, top])
        assert arith.saturations == 3
        arith.clip(np.array([top + 1]))
        assert arith.saturations == 4

    def test_saturate_clamps_a_copy(self, arith):
        fmt = arith.fmt
        raw = np.array([fmt.max_raw + 3.0, 0.0, fmt.min_raw - 1.0, fmt.max_raw])
        before = raw.copy()
        out, saturated = saturate(raw, fmt)
        np.testing.assert_array_equal(out, [fmt.max_raw, 0.0, fmt.min_raw, fmt.max_raw])
        assert saturated == 2
        np.testing.assert_array_equal(raw, before)

    def test_saturate_returns_words_in_range_as_they_are(self, arith):
        fmt = arith.fmt
        for raw in (np.array([fmt.min_raw, 0.0, fmt.max_raw]), np.empty((0, 3))):
            out, saturated = saturate(raw, fmt)
            assert out is raw and saturated == 0

    def test_modulate_rounds_half_to_even(self, arith):
        one = 1 << (arith.fmt.fraction_bits + arith.gain_shift)
        half = one // 2
        evidence = np.array([2 * one + half, 3 * one + half, -(2 * one + half),
                             -(3 * one + half), one + half + 1], dtype=np.int64)
        edge = np.ones_like(evidence)
        np.testing.assert_array_equal(arith.modulate(edge, evidence), [2, 4, -2, -4, 2])

    def test_center_surround_matches_naive_mac(self, arith, raw_banks, raw_map):
        on, off = center_surround(raw_map, raw_banks, arith)
        expected, saturated = naive_mac(raw_map, raw_banks.p3[8], arith.fmt)
        np.testing.assert_array_equal(on, np.maximum(expected, 0))
        np.testing.assert_array_equal(off, np.maximum(-expected, 0))
        assert arith.saturations == saturated

    def test_complex_edges_match_naive_mac(self, arith, raw_banks, raw_map):
        edges = complex_edges(raw_map, raw_banks.p3[:8], arith)
        total = 0
        for got, even_k, odd_k in zip(edges, raw_banks.p3[:8:2], raw_banks.p3[1:8:2]):
            even, sat_even = naive_mac(raw_map, even_k, arith.fmt)
            odd, sat_odd = naive_mac(raw_map, odd_k, arith.fmt)
            total += sat_even + sat_odd
            expected = [[math.isqrt(int(e) ** 2 + int(o) ** 2) for e, o in zip(er, orow)]
                        for er, orow in zip(even, odd)]
            np.testing.assert_array_equal(got, expected)
        assert total > 0
        assert arith.saturations == total

    def test_grouping_activity_matches_naive_mac(self, arith, raw_banks):
        # P7: every masked correlation through the MAC, own minus opposing
        # (unit inhibition), summed over theta and both sides, then one
        # clip and one rect
        fmt = arith.fmt
        rng = np.random.default_rng(53)
        bo = rng.integers(0, fmt.max_raw + 1, size=(len(THETAS), 2, 7, 9)).astype(np.float64)
        masks = bo_masks(bo)
        total = grouping_activity(masks, bo, raw_banks.vm, arith, 0.0)
        got = grouping._grouping_map(total, (7, 9), raw_banks.size, arith)
        total = np.zeros((7, 9), dtype=np.int64)
        saturated = 0
        for ti in range(len(THETAS)):
            for own, kern in enumerate((raw_banks.vm[ti, 1], raw_banks.vm[ti, 0])):
                mask = masks[ti, own]
                own_words, own_sat = naive_mac(mask * bo[ti, own], kern, fmt)
                other_words, other_sat = naive_mac(mask * bo[ti, 1 - own], kern, fmt)
                total += own_words - other_words
                saturated += own_sat + other_sat
        saturated += int(np.count_nonzero((total < fmt.min_raw) | (total > fmt.max_raw)))
        np.testing.assert_array_equal(got, np.maximum(np.clip(total, fmt.min_raw, fmt.max_raw), 0))
        assert arith.saturations == saturated

    def test_words_fit_float64(self):
        FixedFormat(53, 8)
        with pytest.raises(ConfigError):
            FixedFormat(54, 8)

    def test_accumulator_bound(self):
        # 5x5 sums of word x 18-bit coefficient products: w + 17 + 5 <= 48.
        FixedArith(EngineConfig(resolution=Resolution.HW_80, word_bits=26))
        with pytest.raises(ConfigError):
            FixedArith(EngineConfig(resolution=Resolution.HW_80, word_bits=27))


class TestIsqrt:
    def test_exact_at_both_ends_of_every_root(self):
        # the float64 root is monotone in n, so its floor is the integer
        # root on all of [k**2, (k+1)**2 - 1] iff it is at both ends; the
        # top k reach 2**52, past any sum of two squared 26-bit words
        for k in (np.arange(1, 2**18 + 1, dtype=np.int64),
                  np.arange(2**26 - 2**18 + 1, 2**26 + 1, dtype=np.int64)):
            square = k * k
            np.testing.assert_array_equal(_isqrt(square.astype(np.float64)), k)
            np.testing.assert_array_equal(_isqrt((square - 1).astype(np.float64)), k - 1)


class TestQuantizedBanks:
    def test_each_kernel_is_its_quantized_float_kernel(self, raw_banks):
        floats = dict(zip(KERNEL_NAMES, build_banks(5).kernels))
        raw = dict(zip(KERNEL_NAMES, raw_banks.kernels))
        assert raw.keys() == floats.keys() and len(raw) == 17
        for name, kernel in raw.items():
            np.testing.assert_array_equal(kernel, quantize(floats[name], KERNEL_FORMAT)[0])
            assert not kernel.flags.writeable


#: Maps smaller than a 5x5 kernel (the benchmark's tests use 4x6), int64
#: words and a non-contiguous view, cut from an int64 array of words.
EDGE_MAPS = {
    "1x1": lambda words: words[:1, :1].astype(np.float64),
    "2x3": lambda words: words[:2, :3].astype(np.float64),
    "4x6": lambda words: words[:4, :6].astype(np.float64),
    "int64": lambda words: words[:9, :11].copy(),
    "strided-view": lambda words: words.astype(np.float64)[1::2, ::-3],
}


class TestFixedCorrelate:
    """``fixed_correlate`` against the int64 MAC loop, on full-range words."""

    @pytest.mark.parametrize("word_bits", [18, 26])  # 26: the accumulator limit at 5x5
    @pytest.mark.parametrize("shape", LEVEL_SHAPES)
    def test_matches_mac_loop(self, hw80_cfg, word_bits, shape):
        cfg = EngineConfig(resolution=Resolution.HW_80, word_bits=word_bits)
        arith = FixedArith(cfg)
        fmt = arith.fmt
        kernels = list(HwPipeline(hw80_cfg).banks.kernels)
        assert len(kernels) == 17
        rng = np.random.default_rng(word_bits * 1000 + shape[1])
        total = 0
        for kernel in kernels:
            raw = rng.integers(fmt.min_raw, fmt.max_raw + 1, size=shape)
            flags = _Flags()
            got = fixed_correlate(raw, kernel, fmt, fmt, flags)
            expected, saturated = mac_loop(raw, kernel, fmt)
            np.testing.assert_array_equal(got, expected)
            assert flags.saturations == saturated
            total += saturated
            # the same words as the row stack that P3 and P4 share among kernels
            shared_flags = _Flags()
            shared = fixed_correlate(arith.share(raw, kernel.shape[0]), kernel, fmt, fmt,
                                     shared_flags)
            assert shared.tobytes() == got.tobytes()
            assert shared_flags.saturations == saturated
        assert total > 0  # full-range words do overflow some sums

    @pytest.mark.parametrize("cut", sorted(EDGE_MAPS))
    def test_both_forms_match_mac_loop_on_edge_maps(self, arith, raw_banks, cut):
        fmt = arith.fmt
        words = np.random.default_rng(52).integers(fmt.min_raw, fmt.max_raw + 1, size=(20, 30))
        raw = EDGE_MAPS[cut](words)
        for kernel in raw_banks.kernels:
            expected, saturated = mac_loop(raw, kernel, fmt)
            for form in (raw, arith.share(raw, kernel.shape[0])):
                flags = _Flags()
                got = fixed_correlate(form, kernel, fmt, fmt, flags)
                assert got.dtype == np.float64
                np.testing.assert_array_equal(got, expected)
                assert flags.saturations == saturated

    def test_shared_patches_sum_negative_zeros_to_positive_zero(self, hw80_cfg):
        # as ndimage.correlate does; round_shift leaves -0.0 where a
        # negative value rounds to zero
        arith = FixedArith(hw80_cfg)
        words = -np.zeros(LEVEL_SHAPES[-1])
        for kernel in HwPipeline(hw80_cfg).banks.kernels:
            plain = fixed_correlate(words, kernel, arith.fmt, arith.fmt, _Flags())
            shared = fixed_correlate(arith.share(words, kernel.shape[0]), kernel, arith.fmt,
                                     arith.fmt, _Flags())
            assert shared.tobytes() == plain.tobytes()
            assert not np.signbit(shared).any()


class TestRoundShift:
    @pytest.mark.parametrize("shift", range(-7, 21))
    def test_matches_divmod(self, shift):
        rng = np.random.default_rng(shift + 7)
        words = [int(n) for n in rng.integers(-(1 << 40), 1 << 40, size=200)]
        if shift > 0:
            one, half = 1 << shift, 1 << (shift - 1)
            # exact ties on both parities and both signs, and their neighbours
            words += [q * one + r for q in range(-4, 5)
                      for r in (0, 1, half - 1, half, half + 1, one - 1)]
        got = round_shift(np.array(words, dtype=np.float64), shift)
        np.testing.assert_array_equal(got, [divmod_round(n, shift) for n in words])


class TestHwProfile:
    @pytest.mark.parametrize("channels", [0, -1])
    def test_rejects_nonpositive_parallelism(self, hw112_cfg, channels):
        with pytest.raises(ConfigError):
            HwProfile(hw112_cfg, channels_parallel=channels)

    @pytest.mark.parametrize("channels", [10, 18])
    def test_rejects_more_channels_than_a_frame_has(self, hw80_cfg, channels):
        with pytest.raises(ConfigError, match="<= 9"):
            HwProfile(hw80_cfg, channels_parallel=channels)


#: Measured board rates: (resolution, channels in parallel, frames/s).
BOARD_ANCHORS = [(Resolution.HW_112, 1, 2.079), (Resolution.HW_80, 2, 5.190)]
ANCHOR_IDS = ["112x84", "80x60"]


class TestFrameRate:
    def test_calibration_reproduces_board_anchors(self):
        # measured: 2.079 Hz at 112x84 with one channel, 5.190 Hz at
        # 80x60 with two channels in parallel
        assert frame_rate(Resolution.HW_112, 1) == pytest.approx(2.079, rel=1e-12)
        assert frame_rate(Resolution.HW_80, 2) == pytest.approx(5.190, rel=1e-12)

    def test_nine_parallel_channels_give_the_abstracts_rate(self):
        # the abstract's 23.35 fps at 80x60 with all nine channels in
        # parallel; the modelled 23.355 Hz truncates to it
        rate = frame_rate(Resolution.HW_80, 9)
        assert rate == pytest.approx(23.355, abs=5e-4)
        assert math.floor(rate * 100) / 100 == 23.35

    @pytest.mark.parametrize("resolution, parallel, rate", BOARD_ANCHORS, ids=ANCHOR_IDS)
    @pytest.mark.parametrize("channels", range(1, 10))
    def test_rate_is_the_anchor_scaled_by_parallelism(self, resolution, parallel, rate,
                                                      channels):
        assert frame_rate(resolution, channels) == pytest.approx(rate * channels / parallel,
                                                                 rel=1e-12)

    @pytest.mark.parametrize("anchor, modelled_ms, allowed_ms, ratio", [
        (BOARD_ANCHORS[0], 60.24, 53.44, 1.127),
        (BOARD_ANCHORS[1], 30.64, 42.82, 0.716),
    ], ids=ANCHOR_IDS)
    def test_cycle_table_against_the_anchors(self, anchor, modelled_ms, allowed_ms, ratio):
        # the published per-stage cycles of one channel pass, at the clock,
        # beside the time a pass may take at the measured rate: about 13
        # percent above it at 112x84, 28 percent below it at 80x60
        resolution, parallel, rate = anchor
        modelled = channel_pass_cycles(resolution) / CLOCK_HZ
        allowed = parallel / (CHANNEL_PASSES * rate)
        assert modelled * 1e3 == pytest.approx(modelled_ms, abs=5e-3)
        assert allowed * 1e3 == pytest.approx(allowed_ms, abs=5e-3)
        assert modelled / allowed == pytest.approx(ratio, abs=5e-4)

    @pytest.mark.parametrize("channels", [None, 2])
    def test_reference_mode_has_no_board_rate(self, channels):
        with pytest.raises(ConfigError, match="reduced-resolution mode"):
            frame_rate(Resolution.REFERENCE, channels)

    @pytest.mark.parametrize("channels", [10, 18])
    def test_more_channels_than_a_frame_has_rejected(self, channels):
        with pytest.raises(ConfigError, match="<= 9"):
            frame_rate(Resolution.HW_80, channels)
