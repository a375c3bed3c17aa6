import numpy as np
import pytest

from podvs.channels import (
    ChannelId,
    ORIENTATION_CHANNELS,
    color_opponency,
    extract_all,
    to_intensity,
)
from podvs.config import TAP_COUNT, FrameHistory, FrameRGB
from podvs.temporal import STRONGLY_PHASIC, WEAKLY_PHASIC, apply_temporal, make_kernel

from conftest import gray_frame, random_frame

FRAME_PERIOD = 1000.0 / 24.0


class TestIntensity:
    @pytest.mark.parametrize(
        "rgb,expected", [((255, 255, 255), 255.0), ((30, 60, 90), 60.0), ((0, 0, 0), 0.0)]
    )
    def test_average(self, rgb, expected):
        frame = FrameRGB.from_planes(
            np.full((2, 2), rgb[0], np.uint8),
            np.full((2, 2), rgb[1], np.uint8),
            np.full((2, 2), rgb[2], np.uint8),
        )
        assert np.all(to_intensity(frame) == expected)


class TestColorOpponency:
    def _single(self, r, g, b):
        ones = np.ones((1, 1))
        return {k: float(v[0, 0]) for k, v in color_opponency(r * ones, g * ones, b * ones).items()}

    def test_gray_is_silent(self):
        out = self._single(120.0, 120.0, 120.0)
        assert all(v == 0.0 for v in out.values())

    def test_pure_red(self):
        out = self._single(200.0, 0.0, 0.0)
        assert out[ChannelId.RG] == 200.0
        assert out[ChannelId.GR] == 0.0
        assert out[ChannelId.BY] == 0.0
        assert out[ChannelId.YB] == 0.0

    def test_pure_blue(self):
        out = self._single(0.0, 0.0, 200.0)
        assert out[ChannelId.BY] == 200.0
        assert out[ChannelId.YB] == 0.0
        assert out[ChannelId.RG] == 0.0
        assert out[ChannelId.GR] == 0.0

    def test_yellow_drives_yb(self):
        out = self._single(180.0, 180.0, 0.0)
        assert out[ChannelId.YB] > 0.0
        assert out[ChannelId.BY] == 0.0

    def test_opponent_pairs_never_coactive(self):
        rng = np.random.default_rng(3)
        r, g, b = (rng.uniform(-50, 255, size=(16, 16)) for _ in range(3))
        out = color_opponency(r, g, b)
        assert np.all(out[ChannelId.RG] * out[ChannelId.GR] == 0.0)
        assert np.all(out[ChannelId.BY] * out[ChannelId.YB] == 0.0)

    def test_all_outputs_nonnegative(self):
        rng = np.random.default_rng(4)
        out = color_opponency(*(rng.uniform(-10, 10, size=(8, 8)) for _ in range(3)))
        for v in out.values():
            assert np.all(v >= 0.0)

    def test_prerectification_antisymmetry(self):
        # before the outer rectification RG and GR are exact negations,
        # so exactly one of the pair survives at each pixel
        rng = np.random.default_rng(5)
        r, g, b = (rng.uniform(0, 255, size=(12, 12)) for _ in range(3))
        comp_r = np.maximum(r - (g + b) / 2, 0)
        comp_g = np.maximum(g - (r + b) / 2, 0)
        out = color_opponency(r, g, b)
        np.testing.assert_allclose(
            out[ChannelId.RG] - out[ChannelId.GR], comp_r - comp_g, atol=1e-12
        )


def orientation_channel(frames):
    """The orientation channel extract_all derives from a frame sequence."""
    hist = FrameHistory()
    for f in frames:
        hist.push(f)
    strong = make_kernel(STRONGLY_PHASIC, FRAME_PERIOD)
    weak = make_kernel(WEAKLY_PHASIC, FRAME_PERIOD)
    return extract_all(hist, strong, weak)[ChannelId.O_0]


class TestOrientationInput:
    def test_equals_intensity_of_current_frame(self):
        rng = np.random.default_rng(6)
        frames = [random_frame(8, 6, rng) for _ in range(3)]
        np.testing.assert_array_equal(orientation_channel(frames), to_intensity(frames[-1]))

    def test_white_frame(self):
        frames = [gray_frame(4, 4, 0), gray_frame(4, 4, 255)]
        assert np.all(orientation_channel(frames) == 255.0)


class TestExtractAll:
    def _history(self, frames):
        hist = FrameHistory()
        for f in frames:
            hist.push(f)
        return hist

    def test_channel_count_is_nine(self):
        hist = self._history([gray_frame(6, 6, 10)])
        strong = make_kernel(STRONGLY_PHASIC, FRAME_PERIOD)
        weak = make_kernel(WEAKLY_PHASIC, FRAME_PERIOD)
        channels = extract_all(hist, strong, weak)
        assert set(channels) == set(ChannelId)
        assert len(channels) == 9

    def test_static_gray_scene(self):
        hist = self._history([gray_frame(6, 6, 100)] * 6)
        strong = make_kernel(STRONGLY_PHASIC, FRAME_PERIOD)
        weak = make_kernel(WEAKLY_PHASIC, FRAME_PERIOD)
        channels = extract_all(hist, strong, weak)
        np.testing.assert_allclose(
            channels[ChannelId.INTENSITY], 100.0 * strong.taps.sum(), atol=1e-12
        )
        for cid in (ChannelId.RG, ChannelId.GR, ChannelId.BY, ChannelId.YB):
            assert np.all(channels[cid] == 0.0)

    def test_orientation_channels_share_one_array(self):
        hist = self._history([gray_frame(6, 6, 50)])
        strong = make_kernel(STRONGLY_PHASIC, FRAME_PERIOD)
        weak = make_kernel(WEAKLY_PHASIC, FRAME_PERIOD)
        channels = extract_all(hist, strong, weak)
        first = channels[ORIENTATION_CHANNELS[0]]
        for cid in ORIENTATION_CHANNELS[1:]:
            assert channels[cid] is first

    def test_onset_square_localized_in_intensity(self):
        black = gray_frame(10, 10, 0)
        lit = np.zeros((10, 10), dtype=np.uint8)
        lit[3:7, 3:7] = 255
        hist = self._history([black] * 6 + [FrameRGB.from_gray(lit)])
        strong = make_kernel(STRONGLY_PHASIC, FRAME_PERIOD)
        weak = make_kernel(WEAKLY_PHASIC, FRAME_PERIOD)
        out = extract_all(hist, strong, weak)[ChannelId.INTENSITY]
        inside = np.zeros((10, 10), dtype=bool)
        inside[3:7, 3:7] = True
        assert np.all(out[~inside] == 0.0)
        assert np.all(out[inside] != 0.0)

    def test_matches_composed_oracles(self):
        rng = np.random.default_rng(11)
        frames = [random_frame(7, 5, rng) for _ in range(6)]
        hist = self._history(frames)
        strong = make_kernel(STRONGLY_PHASIC, FRAME_PERIOD)
        weak = make_kernel(WEAKLY_PHASIC, FRAME_PERIOD)
        channels = extract_all(hist, strong, weak)
        intensity = np.stack([to_intensity(hist.frame_at(t)) for t in range(TAP_COUNT)])
        np.testing.assert_array_equal(
            channels[ChannelId.INTENSITY], apply_temporal(strong, intensity)
        )
        planes = [apply_temporal(weak, hist.plane_stack(p)) for p in "rgb"]
        oracle = color_opponency(*planes)
        for cid, expected in oracle.items():
            np.testing.assert_array_equal(channels[cid], expected)
        np.testing.assert_array_equal(
            channels[ChannelId.O_0], to_intensity(frames[-1])
        )
