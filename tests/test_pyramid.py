import numpy as np
import pytest

from podvs.config import Resolution
from podvs.errors import DimensionError
from podvs.hwmodel import stage_costs
from podvs.pyramid import (
    HW_LEVELS,
    REFERENCE_DEPTH,
    ImagePyramid,
    bilinear_axis,
    bilinear_resize,
    build_hw_pyramid,
    build_reference_pyramid,
    collapse,
    nn_shift_resample,
    reference_level_dims,
    shift_axis,
    shift_index,
    shift_params,
)

from conftest import gather_bilinear


def naive_bilinear(src, out_h, out_w):
    """Loop-based oracle with the same pixel-center convention."""
    in_h, in_w = src.shape
    out = np.zeros((out_h, out_w))
    for y in range(out_h):
        for x in range(out_w):
            sy = min(max((y + 0.5) * in_h / out_h - 0.5, 0.0), in_h - 1.0)
            sx = min(max((x + 0.5) * in_w / out_w - 0.5, 0.0), in_w - 1.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, in_h - 1), min(x0 + 1, in_w - 1)
            wy, wx = sy - y0, sx - x0
            out[y, x] = (
                src[y0, x0] * (1 - wy) * (1 - wx)
                + src[y0, x1] * (1 - wy) * wx
                + src[y1, x0] * wy * (1 - wx)
                + src[y1, x1] * wy * wx
            )
    return out


def chain_resize_pairs():
    """Every (source shape, target shape) that ``bilinear_resize`` meets in
    the three modes: the 640x480 reference pyramid build, ``collapse`` of
    each mode's levels to the frame size, and the reference mode's
    across-scale sum from every level into every finer one."""
    depth = REFERENCE_DEPTH
    ref = [(h, w) for w, h in reference_level_dims(640, 480, depth)]
    pairs = [(ref[0], shape) for shape in ref[1:]]
    pairs += [(shape, ref[0]) for shape in ref]
    # into level 0 the sum's pairs are collapse's
    pairs += [(ref[k], ref[j]) for j in range(1, depth) for k in range(j + 1, depth)]
    for levels in HW_LEVELS.values():
        pairs += [((h, w), levels[0][::-1]) for w, h in levels]
    return pairs


class TestBilinearBits:
    """``bilinear_resize`` as x-first sparse axis products equals the
    four-neighbour gather bit for bit: the chain's strict comparisons in
    ``normalize.local_maxima`` would flip on a last-bit change."""

    def test_equals_gather_on_every_chain_pair(self):
        rng = np.random.default_rng(16)
        pairs = chain_resize_pairs()
        assert len(pairs) == 9 + 10 + 36 + 6
        for src_shape, (oh, ow) in pairs:
            src = rng.random(src_shape)
            np.testing.assert_array_equal(
                bilinear_resize(src, oh, ow), gather_bilinear(src, oh, ow)
            )

    def test_equals_gather_on_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            h, w, oh, ow = (int(n) for n in rng.integers(1, 48, size=4))
            src = rng.uniform(-100.0, 100.0, size=(h, w))
            np.testing.assert_array_equal(
                bilinear_resize(src, oh, ow), gather_bilinear(src, oh, ow)
            )


class TestReferencePyramid:
    def test_level_dims_sqrt2(self):
        dims = reference_level_dims(640, 480, 10)
        assert dims[0] == (640, 480)
        assert dims[1] == (453, 339)
        assert dims[2] == (320, 240)
        assert dims[3] == (226, 170)
        # oracle: direct arithmetic
        for i, (w, h) in enumerate(dims):
            assert w == int(np.floor(640 * 2 ** (-i / 2) + 0.5))
            assert h == int(np.floor(480 * 2 ** (-i / 2) + 0.5))

    def test_constant_map_stays_constant(self):
        pyr = build_reference_pyramid(np.full((480, 640), 3.25), 10)
        for level in pyr.levels:
            np.testing.assert_allclose(level, 3.25, atol=1e-12)

    def test_depth_one_is_identity(self):
        m = np.arange(12.0).reshape(3, 4)
        pyr = build_reference_pyramid(m, 1)
        assert len(pyr.levels) == 1
        np.testing.assert_array_equal(pyr.levels[0], m)

    def test_excessive_depth_rejected(self):
        with pytest.raises(DimensionError):
            build_reference_pyramid(np.zeros((8, 8)), 10)

    def test_monotone_resolution(self):
        pyr = build_reference_pyramid(np.zeros((84, 112)), 3)
        for fine, coarse in zip(pyr.levels, pyr.levels[1:]):
            assert coarse.shape[0] < fine.shape[0]
            assert coarse.shape[1] < fine.shape[1]

    def test_bilinear_matches_naive(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            h, w = rng.integers(4, 14, size=2)
            oh, ow = rng.integers(2, 12, size=2)
            src = rng.random((h, w))
            np.testing.assert_allclose(
                bilinear_resize(src, oh, ow), naive_bilinear(src, oh, ow), atol=1e-12
            )

    def test_axis_operators_factor_the_resize(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            h, w = rng.integers(2, 14, size=2)
            oh, ow = rng.integers(2, 14, size=2)
            src = rng.random((h, w))
            y, x = bilinear_axis(h, oh), bilinear_axis(w, ow)
            np.testing.assert_allclose(
                y @ src @ x.T.toarray(), bilinear_resize(src, oh, ow), atol=1e-12
            )

    def test_axis_operator_rows_are_two_tap_partitions_of_unity(self):
        for n_in, n_out in ((480, 640), (640, 452), (7, 3), (5, 5)):
            op = bilinear_axis(n_in, n_out)
            assert op.shape == (n_out, n_in)
            assert np.all(np.diff(op.indptr) <= 2)
            np.testing.assert_allclose(op.sum(axis=1), 1.0, atol=1e-15)


def hw_shift_pairs():
    """Every (src_dim, dst_dim) the hardware modes address, per axis: the
    root read down to each coarser level, and each coarser level read up
    to each finer one in the across-scale sum."""
    pairs = set()
    for levels in HW_LEVELS.values():
        for axis in (0, 1):
            dims = [level[axis] for level in levels]
            pairs.update((dims[0], dst) for dst in dims[1:])
            pairs.update((src, dst) for j, dst in enumerate(dims) for src in dims[j + 1:])
    return pairs


class TestShiftTable:
    #: The board's frozen address constants, (src_dim, dst_dim) -> (Q, s),
    #: and how many target indices land one pixel before the exact
    #: floor(x * src / dst).
    GOLDEN = {
        # downsampling, 112x84 root
        (112, 80): ((45875, 15), 15), (84, 60): ((45875, 15), 11),
        (112, 56): ((32768, 14), 0), (84, 44): ((62557, 15), 3),
        # downsampling, 80x60 root
        (80, 56): ((46811, 15), 7), (60, 44): ((44684, 15), 0),
        (80, 40): ((32768, 14), 0), (60, 30): ((32768, 14), 0),
        # upsampling (coarse level read from a finer grid)
        (80, 112): ((46811, 16), 15), (60, 84): ((46811, 16), 11),
        (56, 112): ((32768, 16), 0), (44, 84): ((34328, 16), 3),
        (56, 80): ((45875, 16), 7), (44, 60): ((48060, 16), 0),
        (40, 80): ((32768, 16), 0), (30, 60): ((32768, 16), 0),
        (40, 56): ((46811, 16), 7), (30, 44): ((44684, 16), 0),
    }

    def test_hw_levels_imply_the_golden_pairs(self):
        assert hw_shift_pairs() == set(self.GOLDEN)

    def test_frozen_table_matches_derivation(self):
        for (src, dst), (frozen, _) in self.GOLDEN.items():
            assert shift_params(src, dst) == frozen

    def test_indices_stay_in_bounds(self):
        for (src, dst) in hw_shift_pairs():
            idx = shift_index(np.arange(dst), src, dst)
            assert idx.min() >= 0
            assert idx.max() < src

    def test_axis_operator_selects_the_shift_addresses(self):
        for (src, dst) in hw_shift_pairs():
            op = shift_axis(src, dst)
            assert op.shape == (dst, src)
            assert op.nnz == dst and np.all(op.data == 1.0)
            np.testing.assert_array_equal(
                op @ np.arange(src, dtype=np.float64), shift_index(np.arange(dst), src, dst)
            )

    def test_mismatch_counts_against_exact_rational(self):
        # the approximation occasionally lands one pixel before the
        # exact floor(x * src / dst); these counts are frozen behavior
        for (src, dst), (_, expected) in self.GOLDEN.items():
            approx = shift_index(np.arange(dst), src, dst)
            exact = (np.arange(dst) * src) // dst
            diff = approx - exact
            assert np.all(np.abs(diff) <= 1)
            assert int(np.count_nonzero(diff)) == expected


class TestHwPyramid:
    def test_level_sizes(self):
        pyr = build_hw_pyramid(np.zeros((84, 112)))
        assert [lvl.shape for lvl in pyr.levels] == [(84, 112), (60, 80), (44, 56)]
        pyr = build_hw_pyramid(np.zeros((60, 80)))
        assert [lvl.shape for lvl in pyr.levels] == [(60, 80), (44, 56), (30, 40)]

    def test_constant_map(self):
        pyr = build_hw_pyramid(np.full((84, 112), 9.0))
        for level in pyr.levels:
            assert np.all(level == 9.0)

    def test_unique_values_follow_index_map(self):
        src = np.arange(84 * 112, dtype=np.float64).reshape(84, 112)
        pyr = build_hw_pyramid(src)
        rows = shift_index(np.arange(60), 84, 60)
        cols = shift_index(np.arange(80), 112, 80)
        np.testing.assert_array_equal(pyr.levels[1], src[np.ix_(rows, cols)])
        rows = shift_index(np.arange(44), 84, 44)
        cols = shift_index(np.arange(56), 112, 56)
        np.testing.assert_array_equal(pyr.levels[2], src[np.ix_(rows, cols)])

    def test_wrong_size_rejected(self):
        with pytest.raises(DimensionError):
            build_hw_pyramid(np.zeros((100, 100)))

    def test_each_pyramid_carries_its_resampler(self):
        assert build_hw_pyramid(np.zeros((60, 80))).axis is shift_axis
        assert build_reference_pyramid(np.zeros((60, 80)), 3).axis is bilinear_axis
        with pytest.raises(TypeError):
            ImagePyramid((np.zeros((4, 4)),))

    def test_stage_cycles(self):
        assert stage_costs(Resolution.HW_112)["P2"].cycles == 24000
        assert stage_costs(Resolution.HW_80)["P2"].cycles == 56 * 44 * 5

    def test_hw_levels_registry(self):
        assert HW_LEVELS[(112, 84)] == ((112, 84), (80, 60), (56, 44))
        assert HW_LEVELS[(80, 60)] == ((80, 60), (56, 44), (40, 30))


class TestCollapse:
    def test_single_level_identity_resize(self):
        m = np.arange(20.0).reshape(4, 5)
        out = collapse((m,), 4, 5)
        np.testing.assert_array_equal(out, m)

    def test_two_constant_levels_sum(self):
        out = collapse((np.full((8, 8), 1.5), np.full((4, 4), 2.25)), 8, 8)
        np.testing.assert_allclose(out, 3.75, atol=1e-12)

    def test_matches_naive_resize_and_add(self):
        rng = np.random.default_rng(13)
        levels = (rng.random((9, 12)), rng.random((6, 8)), rng.random((4, 5)))
        out = collapse(levels, 9, 12)
        expected = sum(naive_bilinear(lvl, 9, 12) for lvl in levels)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(14)
        levels = tuple(rng.random(s) for s in ((10, 10), (7, 7), (5, 5)))
        scaled = tuple(3.5 * lvl for lvl in levels)
        a = collapse(scaled, 10, 10)
        b = 3.5 * collapse(levels, 10, 10)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_build_then_collapse_constant(self):
        depth = 4
        pyr = build_reference_pyramid(np.full((64, 64), 2.0), depth)
        out = collapse(pyr.levels, 64, 64)
        np.testing.assert_allclose(out, depth * 2.0, atol=1e-9)


class TestNnResample:
    def test_preserves_dtype_int(self):
        src = np.arange(84 * 112, dtype=np.int64).reshape(84, 112)
        out = nn_shift_resample(src, 60, 80)
        assert out.dtype == np.int64
