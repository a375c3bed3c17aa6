"""Pipeline and HwPipeline: one grouping chain in two arithmetics."""
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from podvs import pipeline, synth
from podvs.channels import ORIENTATION_CHANNELS, ChannelId, extract_all
from podvs.config import EngineConfig, Resolution
from podvs.errors import ConfigError, DimensionError
from podvs.hwmodel import HwPipeline
from podvs.metrics import pcc
from podvs.normalize import fuse
from podvs.pipeline import Pipeline, run_sequence

ENGINES = {"float": Pipeline, "fixed": HwPipeline}

#: The fixed-versus-float gate at 112x84, clip by clip: frames run (None:
#: all) and the floor of their mean PCC, just below the value measured (in
#: the comment).  The static clips repeat one frame, and the history pads
#: with clones of the first, so frame 0 is their steady state and stands
#: for the clip.  onset_square and drifting_bar (24 frames each) are left
#: out to keep the suite fast.
CLIP_FIDELITY_112 = {
    "red_bar": (1, 0.9765),  # 0.97692
    "static_square": (1, 0.992),  # 0.99237
    "color_popout": (1, 0.9985),  # 0.99859
    "band": (1, 0.9995),  # 0.99961
    "bright_dot": (1, 0.9997),  # 0.99976
    "two_dots": (1, 0.9998),  # 0.99986
    "vertical_bar": (1, 0.99998),  # 0.99999
    "onset_bar": (None, 0.9992),  # 0.99928, mean over its 8 frames
}
#: The same gate at 80x60, on the same clips.
CLIP_FIDELITY_80 = {
    "red_bar": (1, 0.9985),  # 0.99872
    "onset_bar": (None, 0.999),  # 0.99908, mean over its 8 frames
    "color_popout": (1, 0.9994),  # 0.99949
    "static_square": (1, 0.9997),  # 0.99976
    "bright_dot": (1, 0.9999),  # 0.99991
    "two_dots": (1, 0.9999),  # 0.99994
    "vertical_bar": (1, 0.99995),  # 0.99998
    "band": (1, 0.99999),  # 0.999997
}


def run(engine, frames):
    return [engine.step(frame) for frame in frames]


@pytest.fixture(scope="module")
def frames80():
    return synth.all_videos(80, 60)["onset_square"][8:11]


@pytest.fixture(scope="module")
def videos112():
    return synth.all_videos(112, 84)


@pytest.fixture(scope="module")
def videos80():
    return synth.all_videos(80, 60)


def clip_fidelity(frames, count, resolution) -> float:
    """Mean fixed-versus-float PCC over a clip's first ``count`` frames
    (None: all); a static clip (``count`` 1) must repeat its first frame."""
    if count == 1:  # a static clip: every frame is its first
        assert all(np.array_equal(getattr(f, c), getattr(frames[0], c))
                   for f in frames for c in "rgb")
    cfg = EngineConfig(resolution=resolution)
    fixed = run(HwPipeline(cfg), frames[:count])
    ref = run(Pipeline(cfg), frames[:count])
    return float(np.mean([pcc(a, b) for a, b in zip(fixed, ref)]))


@pytest.fixture(scope="module", params=sorted(ENGINES))
def twin_runs(request, frames80):
    """Maps of two fresh engines of one arithmetic on the same frames."""
    cfg = EngineConfig(resolution=Resolution.HW_80)
    make = ENGINES[request.param]
    return run(make(cfg), frames80), run(make(cfg), frames80)


class TestEngines:
    def test_fresh_engines_give_identical_maps(self, twin_runs):
        for a, b in zip(*twin_runs):
            np.testing.assert_array_equal(a, b)

    def test_maps_finite_in_unit_range(self, twin_runs):
        for map_ in twin_runs[0]:
            assert map_.shape == (60, 80)
            assert np.all(np.isfinite(map_))
            assert map_.min() >= 0.0 and map_.max() <= 1.0

    def test_profile_counts_steps(self, hw80_cfg, frames80):
        engine = HwPipeline(hw80_cfg)
        run(engine, frames80[:2])
        assert engine.profile.frames == 2
        assert engine.profile.saturations == 0

    def test_run_sequence_times_every_step(self, hw80_cfg, frames80):
        engine = HwPipeline(hw80_cfg)
        maps, seconds = run_sequence(frames80, engine)
        assert len(maps) == len(seconds) == len(frames80)
        assert all(s > 0 for s in seconds)
        assert engine.profile.frames == len(frames80)
        with pytest.raises(DimensionError):
            run_sequence([], engine)

    def test_hw_pipeline_rejects_reference_mode(self):
        with pytest.raises(ConfigError):
            HwPipeline(EngineConfig(resolution=Resolution.REFERENCE))


class TestFuseSharedPyramid:
    def test_shared_orientation_list_equals_copies(self):
        rng = np.random.default_rng(41)
        shapes = ((60, 80), (44, 56), (30, 40))

        def pyramid():
            return [rng.random(shape) ** 4 for shape in shapes]

        shared = {cid: pyramid() for cid in ChannelId if cid not in ORIENTATION_CHANNELS}
        copies = dict(shared)
        gray = pyramid()
        for cid in ORIENTATION_CHANNELS:
            shared[cid] = gray
            copies[cid] = [level.copy() for level in gray]
        np.testing.assert_array_equal(fuse(shared), fuse(copies))


#: One 640x480 frame of a gray and of a colour clip, and how many of
#: its six distinct channel maps have a non-zero pixel.
ZERO_SKIP_FRAMES = {
    "drifting_bar": (lambda: synth.drifting_bar_video(640, 480, frames=1)[0], 2),
    "color_popout": (lambda: synth.color_popout_video(640, 480, frames=1)[0][0], 3),
}


class TestZeroChannelSkip:
    """Reference mode groups only the channel maps with a non-zero pixel."""

    @pytest.mark.parametrize("clip", sorted(ZERO_SKIP_FRAMES))
    def test_640x480_frame_bit_identical(self, clip, monkeypatch):
        make_frame, nonzero = ZERO_SKIP_FRAMES[clip]
        frame = make_frame()
        cfg = EngineConfig(resolution=Resolution.REFERENCE)
        grouping_pyramid = pipeline.grouping_pyramid
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return grouping_pyramid(*args, **kwargs)

        monkeypatch.setattr(pipeline, "grouping_pyramid", counted)
        fused = Pipeline(cfg).step(frame)
        assert len(calls) == nonzero

        # the unskipped chain: every distinct channel map grouped
        engine = Pipeline(cfg)
        engine.history.push(frame)
        channels = extract_all(engine.history, engine.kernel_strong, engine.kernel_weak)
        gray = engine._grouping(channels[ChannelId.O_0], True)
        grouped = {cid: gray if cid in ORIENTATION_CHANNELS else engine._grouping(map_, False)
                   for cid, map_ in channels.items()}
        assert len(calls) == nonzero + 6
        assert fused.tobytes() == fuse(grouped).tobytes()


#: Bytes of one 640x480 float64 map.
MAP_640_BYTES = 640 * 480 * 8
#: Bound on the traced peak of a warm 640x480 reference step of the gray
#: ``drifting_bar``, in 640x480 float64 maps: 21.5 measured (52.8 MB).
#: Grouping level by level, with every orientation's von Mises stack
#: alive from P4 to P7, peaked at 29.3 (72.0 MB); the chain that also
#: held the three colour plane stacks together, formed every level's
#: edges before P5 and kept each zero map until fusion peaked at 38.6
#: (94.9 MB).
REFERENCE_STEP_PEAK_MAPS = 24
#: The same bound for a frame of ``six_map_clip``, which groups all six
#: distinct channel maps: 28.5 measured (70.0 MB), 36.3 (89.2 MB) level
#: by level.  No benchmark workload groups six maps.
SIX_MAP_STEP_PEAK_MAPS = 31

SPEC = importlib.util.spec_from_file_location(
    "synth_digests", Path(__file__).resolve().parent.parent / "tools" / "synth_digests.py")
synth_digests = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(synth_digests)


def warm_step_peak(frames) -> int:
    """Traced peak bytes of a reference step of frames[1], after frames[0]
    has filled the operator caches and the history."""
    engine = Pipeline(EngineConfig(resolution=Resolution.REFERENCE))
    engine.step(frames[0])
    tracemalloc.start()
    try:
        engine.step(frames[1])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    def test_reference_step_holds_no_array_it_has_stopped_reading(self):
        frames = synth.drifting_bar_video(640, 480, frames=2)
        assert warm_step_peak(frames) <= REFERENCE_STEP_PEAK_MAPS * MAP_640_BYTES

    def test_six_map_reference_step(self, monkeypatch):
        frames = synth_digests.six_map_clip(640, 480, 2)
        grouping_pyramid = pipeline.grouping_pyramid
        calls = []

        def counted(*args):
            calls.append(None)
            return grouping_pyramid(*args)

        monkeypatch.setattr(pipeline, "grouping_pyramid", counted)
        peak = warm_step_peak(frames)
        assert len(calls) == 12  # six maps a frame, none skipped
        assert peak <= SIX_MAP_STEP_PEAK_MAPS * MAP_640_BYTES


class TestFidelityGate:
    @pytest.mark.parametrize("clip", sorted(CLIP_FIDELITY_112))
    def test_every_clip_at_112x84(self, clip, videos112):
        count, floor = CLIP_FIDELITY_112[clip]
        assert clip_fidelity(videos112[clip], count, Resolution.HW_112) >= floor

    @pytest.mark.parametrize("clip", sorted(CLIP_FIDELITY_80))
    def test_every_clip_at_80x60(self, clip, videos80):
        count, floor = CLIP_FIDELITY_80[clip]
        assert clip_fidelity(videos80[clip], count, Resolution.HW_80) >= floor
