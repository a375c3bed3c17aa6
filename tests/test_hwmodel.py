"""The fixed-point backend and the hardware cost ledger."""
import math

import numpy as np
import pytest

from podvs.config import EngineConfig, Resolution
from podvs.errors import ConfigError
from podvs.grouping import center_surround, complex_edges
from podvs.hwmodel import KERNEL_FORMAT, FixedArith, HwPipeline, HwProfile


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

    def test_modulate_rounds_half_to_even(self, arith):
        one = 1 << (arith.fmt.fraction_bits + arith.gain_shift)
        half = one // 2
        evidence = np.array([2 * one + half, 3 * one + half, -(2 * one + half),
                             -(3 * one + half), one + half + 1], dtype=np.int64)
        edge = np.ones_like(evidence)
        np.testing.assert_array_equal(arith.modulate(edge, evidence), [2, 4, -2, -4, 2])

    def test_center_surround_matches_naive_mac(self, arith, raw_banks, raw_map):
        on, off = center_surround(raw_map, raw_banks.cs, arith)
        expected, saturated = naive_mac(raw_map, raw_banks.cs.on, arith.fmt)
        np.testing.assert_array_equal(on, np.maximum(expected, 0))
        np.testing.assert_array_equal(off, np.maximum(-expected, 0))
        assert arith.saturations == saturated

    def test_complex_edges_match_naive_mac(self, arith, raw_banks, raw_map):
        edges = complex_edges(raw_map, raw_banks.edge, arith)
        total = 0
        for got, even_k, odd_k in zip(edges, raw_banks.edge.even, raw_banks.edge.odd):
            even, sat_even = naive_mac(raw_map, even_k, arith.fmt)
            odd, sat_odd = naive_mac(raw_map, odd_k, arith.fmt)
            total += sat_even + sat_odd
            expected = [[math.isqrt(int(e) ** 2 + int(o) ** 2) for e, o in zip(er, orow)]
                        for er, orow in zip(even, odd)]
            np.testing.assert_array_equal(got, expected)
        assert total > 0
        assert arith.saturations == total

    def test_accumulator_bound(self):
        # 5x5 sums of word x 18-bit coefficient products: w + 17 + 5 <= 48.
        FixedArith(EngineConfig(resolution=Resolution.HW_80, word_bits=26))
        with pytest.raises(ConfigError):
            FixedArith(EngineConfig(resolution=Resolution.HW_80, word_bits=27))


class TestHwProfile:
    @pytest.mark.parametrize("channels", [0, -1])
    def test_rejects_nonpositive_parallelism(self, hw112_cfg, channels):
        with pytest.raises(ConfigError):
            HwProfile(hw112_cfg, channels_parallel=channels)
