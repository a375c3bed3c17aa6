import numpy as np
import pytest

from podvs import normalize
from podvs.channels import ChannelId
from podvs.errors import DimensionError
from podvs.normalize import (
    conspicuity,
    fuse,
    local_maxima,
    normalize_n1,
    normalize_n2,
    rescale_to_range,
)
from podvs.pyramid import collapse


class TestLocalMaxima:
    def test_constant_map_has_none(self):
        assert local_maxima(np.full((6, 6), 3.0)) == []

    def test_single_spike(self):
        m = np.zeros((7, 7))
        m[3, 4] = 2.0
        assert local_maxima(m) == [(4, 3, 2.0)]

    def test_two_spikes_above_threshold(self):
        m = np.zeros((9, 9))
        m[2, 2] = 10.0
        m[6, 6] = 4.0
        found = sorted(local_maxima(m))
        assert found == [(2, 2, 10.0), (6, 6, 4.0)]

    def test_threshold_floor(self):
        m = np.zeros((9, 9))
        m[2, 2] = 10.0
        m[6, 6] = 0.4  # below 0.05 * 10
        assert local_maxima(m) == [(2, 2, 10.0)]

    def test_plateau_not_strict_maximum(self):
        m = np.zeros((6, 6))
        m[2:4, 2:4] = 1.0
        assert local_maxima(m) == []

    def test_radius_widens_neighborhood(self):
        m = np.zeros((9, 9))
        m[4, 2] = 1.0
        m[4, 4] = 0.9
        # two pixels apart, each is outside the other's MAXIMA_RADIUS = 1 neighborhood
        assert normalize.MAXIMA_RADIUS == 1
        assert len(local_maxima(m)) == 2


class TestN1:
    def test_single_maximum_scales_by_square(self):
        m = np.zeros((8, 8))
        m[4, 4] = 1.0
        np.testing.assert_allclose(normalize_n1(m), m * 1.0, atol=1e-15)

    def test_two_equal_maxima_zero_output(self):
        m = np.zeros((9, 9))
        m[2, 2] = 1.0
        m[6, 6] = 1.0
        assert np.all(normalize_n1(m) == 0.0)

    def test_known_peak_statistics(self):
        m = np.zeros((11, 11))
        m[1, 1] = 1.0
        m[5, 5] = 0.4
        m[9, 9] = 0.2
        out = normalize_n1(m)
        np.testing.assert_allclose(out, m * (1.0 - 0.3) ** 2, atol=1e-12)

    def test_promotes_unique_peak_argmax(self):
        rng = np.random.default_rng(40)
        m = rng.random((12, 12)) * 0.2
        m[6, 7] = 5.0
        out = normalize_n1(m)
        assert np.unravel_index(np.argmax(out), out.shape) == (6, 7)


class TestN2:
    def test_affine_invariance(self):
        rng = np.random.default_rng(41)
        m = rng.random((10, 10))
        np.testing.assert_allclose(
            normalize_n2(4.0 * m + 11.0), normalize_n2(m), atol=1e-9
        )

    def test_composition_with_n1(self):
        rng = np.random.default_rng(42)
        m = rng.random((10, 10))
        np.testing.assert_allclose(
            normalize_n2(m), normalize_n1(rescale_to_range(m)), atol=1e-15
        )

    def test_constant_map_zero(self):
        assert np.all(normalize_n2(np.full((5, 5), 3.0)) == 0.0)

    def test_range_ceiling(self):
        rng = np.random.default_rng(43)
        m = 7.0 * rng.random((8, 8)) - 3.0
        scaled = rescale_to_range(m)
        assert scaled.min() == 0.0
        assert scaled.max() == pytest.approx(1.0)


def fuse_pyramids(pyramids: dict):
    """``fuse`` of each channel's ``conspicuity`` map, as ``Pipeline.step`` forms them."""
    return fuse({cid: conspicuity(levels) for cid, levels in pyramids.items()})


class TestFuse:
    def _pyramids(self, cfg, fill):
        shapes = [(cfg.height, cfg.width), (60, 80), (44, 56)]
        return {
            cid: [np.full(s, fill, dtype=np.float64) for s in shapes]
            for cid in ChannelId
        }

    def test_all_zero_channels_zero_map(self, hw112_cfg):
        out = fuse_pyramids(self._pyramids(hw112_cfg, 0.0))
        assert out.shape == (84, 112)
        assert np.all(out == 0.0)

    def test_missing_channel_rejected(self, hw112_cfg):
        pyrs = self._pyramids(hw112_cfg, 0.0)
        del pyrs[ChannelId.RG]
        with pytest.raises(DimensionError):
            fuse_pyramids(pyrs)

    def test_level_0_sizes_that_differ_rejected(self, hw112_cfg):
        # the output is level 0's size, the frame's, which every pyramid shares
        pyrs = self._pyramids(hw112_cfg, 1.0)
        pyrs[ChannelId.BY] = [np.ones((60, 80)), np.ones((44, 56))]
        with pytest.raises(DimensionError, match=r"shape: \[\(60, 80\), \(84, 112\)\]"):
            fuse_pyramids(pyrs)

    def test_single_active_channel(self, hw112_cfg):
        pyrs = self._pyramids(hw112_cfg, 0.0)
        peaked = np.zeros((84, 112))
        peaked[40, 50] = 3.0
        pyrs[ChannelId.INTENSITY] = [peaked, np.zeros((60, 80)), np.zeros((44, 56))]
        out = fuse_pyramids(pyrs)
        assert out.min() >= 0.0 and out.max() == pytest.approx(1.0)
        assert np.unravel_index(np.argmax(out), out.shape) == (40, 50)

    def test_output_in_unit_range(self):
        rng = np.random.default_rng(44)
        pyrs = {
            cid: [
                rng.random((84, 112)),
                rng.random((60, 80)),
                rng.random((44, 56)),
            ]
            for cid in ChannelId
        }
        out = fuse_pyramids(pyrs)
        assert out.min() >= 0.0
        assert out.max() <= 1.0

    def test_channel_gain_invariance_of_argmax(self):
        # positive per-channel rescaling before N2 cannot move the argmax
        rng = np.random.default_rng(45)
        base = {
            cid: [
                rng.random((84, 112)),
                rng.random((60, 80)),
                rng.random((44, 56)),
            ]
            for cid in ChannelId
        }
        scaled = {
            cid: [lvl * (3.0 + i) for lvl in levels]
            for i, (cid, levels) in enumerate(base.items())
        }
        a = fuse_pyramids(base)
        b = fuse_pyramids(scaled)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_zero_pyramids_skip_normalization_bit_identical(self, hw112_cfg, monkeypatch):
        # the opponency channels of a gray frame group to zeros on every
        # level, +0.0 or -0.0; fuse gives them a zero conspicuity map
        # without finding local maxima, in the bits of the full path
        rng = np.random.default_rng(46)
        shapes = [(84, 112), (60, 80), (44, 56)]
        zero = {ChannelId.RG: 0.0, ChannelId.GR: 0.0, ChannelId.BY: -0.0, ChannelId.YB: 0.0}
        pyrs = {cid: [np.full(s, zero[cid]) if cid in zero else rng.random(s) ** 4
                      for s in shapes] for cid in ChannelId}

        def full_path(levels):
            n1 = [normalize_n1(level) for level in levels]
            conspicuity = collapse(n1, hw112_cfg.height, hw112_cfg.width)
            return normalize_n2(conspicuity)

        expected = rescale_to_range(sum(full_path(pyrs[cid]) for cid in ChannelId))
        searched = []

        def recorded(map_):
            searched.append(map_)
            return local_maxima(map_)

        monkeypatch.setattr(normalize, "local_maxima", recorded)
        fused = fuse_pyramids(pyrs)
        assert fused.tobytes() == expected.tobytes()
        # N1 on each level and N2 on the conspicuity map of the 5 non-zero channels
        assert len(searched) == 5 * (len(shapes) + 1)
        assert all(map_.any() for map_ in searched)
