"""The benchmark's own logic, on tiny inputs.

Run with: python3 -m pytest bench/tests
"""
import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

import child
import podvs
import scoring
import tracer
import workloads
from podvs import EngineConfig, HwPipeline, Pipeline, synth
from podvs.config import Resolution


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


class TestSelfTime:
    def test_child_time_is_subtracted_from_parent(self):
        t = tracer.Tracer(clock=fake_clock(0.0, 1.0, 4.0, 10.0))
        t.call("outer", lambda: t.call("inner", lambda: None))
        assert t.total_s["outer"] == 10.0
        assert t.self_s["outer"] == 7.0
        assert t.self_s["inner"] == 3.0

    def test_only_direct_children_are_subtracted(self):
        # outer 0..10 > mid 1..8 > inner 2..5, then a sibling 8.5..9.5
        t = tracer.Tracer(clock=fake_clock(0.0, 1.0, 2.0, 5.0, 8.0, 8.5, 9.5, 10.0))

        def body():
            t.call("mid", lambda: t.call("inner", lambda: None))
            t.call("sibling", lambda: None)

        t.call("outer", body)
        assert t.self_s["inner"] == 3.0
        assert t.self_s["mid"] == 4.0
        assert t.self_s["sibling"] == 1.0
        assert t.self_s["outer"] == 10.0 - 7.0 - 1.0
        assert sum(t.self_s.values()) == t.total_s["outer"]

    def test_span_closes_when_the_call_raises(self):
        t = tracer.Tracer(clock=fake_clock(0.0, 1.0, 2.0, 3.0))

        def boom():
            raise ValueError

        with pytest.raises(ValueError):
            t.call("outer", lambda: t.call("inner", boom))
        assert t.calls == {"outer": 1, "inner": 1}
        assert t.self_s["outer"] == 2.0


class TestMacs:
    def test_macs_is_h_w_k_squared_per_call(self):
        t = tracer.Tracer()
        fn = podvs.grouping.correlate
        wrapped = t.wrap("grouping.correlate", fn, tracer.correlation_macs(fn))
        wrapped(np.ones((7, 9)), np.ones((3, 3)))
        wrapped(np.ones((7, 9)), kernel=np.ones((5, 5)))
        assert t.calls["grouping.correlate"] == 2
        assert t.counters["grouping.correlate.macs"] == 7 * 9 * 9 + 7 * 9 * 25

    def test_fixed_correlate_kernel_found_by_name(self):
        from podvs import hwmodel
        t = tracer.Tracer()
        fn = hwmodel.fixed_correlate
        wrapped = t.wrap("hwmodel.fixed_correlate", fn, tracer.correlation_macs(fn))
        fmt = hwmodel.FixedFormat(18, 8)
        wrapped(np.ones((4, 6), dtype=np.int64), kernel_raw=np.ones((5, 5), dtype=np.int64),
                in_fmt=fmt, out_fmt=fmt, flags=hwmodel._Flags())
        assert t.counters["hwmodel.fixed_correlate.macs"] == 4 * 6 * 25


class TestInstall:
    def test_every_binding_site_is_wrapped_and_restored(self):
        from podvs import grouping, hwmodel, normalize, pipeline, pyramid
        originals = (pipeline.grouping_pyramid, hwmodel.fuse, normalize.collapse,
                     grouping.correlate, pipeline.bilinear_resize)
        with tracer.Installed(tracer.Tracer()):
            for fn in (pipeline.grouping_pyramid, hwmodel.fuse, normalize.collapse,
                       grouping.correlate, pipeline.bilinear_resize, podvs.fuse):
                assert fn.__wrapped__ is not None
            assert pipeline.bilinear_resize.__wrapped__ is pyramid.bilinear_resize.__wrapped__
        assert (pipeline.grouping_pyramid, hwmodel.fuse, normalize.collapse,
                grouping.correlate, pipeline.bilinear_resize) == originals
        assert not hasattr(podvs.fuse, "__wrapped__")

    def test_private_and_foreign_functions_are_not_wrapped(self):
        names = set(tracer.layer_functions().values())
        assert "hwmodel.fixed_correlate" in names
        assert "grouping._rect" not in names
        assert not any(n.startswith(("config.", "kernels.", "synth.")) for n in names)
        assert "hwmodel.extract_all" not in names


class TestTargets:
    @pytest.mark.parametrize("width,height", [(64, 48), (80, 60)])
    def test_drifting_bar_box_matches_the_painted_bar(self, width, height):
        frames = synth.drifting_bar_video(width, height, frames=40)  # wraps around
        for n, frame in enumerate(frames):
            box = workloads.drifting_bar_box(width, height, n)
            painted = frame.r == 240
            expected = np.zeros_like(painted)
            expected[box.y0:box.y1, box.x0:box.x1] = True
            assert np.array_equal(painted, expected), n

    def test_onset_square_has_a_target_only_after_onset(self):
        boxes = workloads.target_boxes(112, 84)
        assert boxes["onset_square"](synth.ONSET_FRAME - 1) is None
        assert boxes["onset_square"](synth.ONSET_FRAME) is not None

    def test_hw_clips_have_62_target_frames(self):
        videos = workloads.WORKLOADS["hw80_float"].videos(0)
        assert sum(len(v.frames) for v in videos) == 100
        assert sum(b is not None for v in videos for b in v.targets) == 62


class TestScoring:
    def test_popout_hits(self):
        box = workloads.Box(1, 1, 3, 3)
        inside = np.zeros((4, 4))
        inside[2, 1] = 1.0
        outside = np.zeros((4, 4))
        outside[0, 3] = 1.0
        maps = [inside, outside, None, outside]
        targets = [box, box, box, None]
        assert scoring.popout_hits(maps, targets) == (1, 3)

    def test_argmax_is_x_then_y(self):
        m = np.zeros((3, 5))
        m[2, 4] = 1.0
        assert scoring.argmax_xy(m) == (4, 2)

    @pytest.mark.parametrize("map_,ok", [
        (np.full((2, 3), 0.5), True),
        (np.full((3, 2), 0.5), False),
        (np.array([[0.0, 1.0, np.nan], [0, 0, 0]]), False),
        (np.array([[0.0, 1.5, 0.0], [0, 0, 0]]), False),
        (np.array([[0.0, -0.1, 0.0], [0, 0, 0]]), False),
        (None, False),
    ])
    def test_map_check(self, map_, ok):
        assert scoring.map_ok(map_, 2, 3) is ok

    def test_missing_counts_raised_and_bad_maps(self):
        class Engine:
            def __init__(self):
                self.n = 0

            def step(self, frame):
                self.n += 1
                if self.n == 2:
                    raise RuntimeError("step failed")
                return np.full((2, 3), 2.0 if self.n == 3 else 0.5)

        video = workloads.Video("v", (None,) * 4, (None,) * 4)
        setup, steps, maps, _ = child.run_video(Engine, video, (2, 3))
        assert setup is not None and len(child.timed(steps)) == 2
        assert child.missing(maps) == 2

    def test_timed_frames_skip_the_set_up_frame_unless_it_is_the_only_one(self):
        assert child.timed([5.0, 1.0, None, 2.0]) == [1.0, 2.0]
        assert child.timed([5.0]) == [5.0]
        assert child.timed([None]) == []

    def test_pcc_undefined_on_constant_map(self):
        assert scoring.pcc(np.ones((3, 3)), np.eye(3)) is None
        assert scoring.pcc(np.eye(3), 2 * np.eye(3) + 1) == pytest.approx(1.0)

    def test_digest_depends_on_values_and_shape(self):
        def digest(*maps):
            d = scoring.MapDigest()
            for m in maps:
                d.add(m)
            return d.hexdigest()
        a = np.arange(6.0).reshape(2, 3)
        assert digest(a) == digest(a.copy())
        assert digest(a) != digest(a.reshape(3, 2))
        assert digest(a) != digest(a + 1e-15 * a.max())


class TestNoise:
    def test_seed_zero_leaves_frames_unchanged(self):
        frames = synth.static_square_video(16, 12, frames=2)[0]
        assert workloads.add_noise(frames, 0, 0) == frames

    def test_noise_is_seeded_small_and_gray(self):
        frames = synth.static_square_video(16, 12, frames=3)[0]
        a = workloads.add_noise(frames, 5, 1)
        b = workloads.add_noise(frames, 5, 1)
        c = workloads.add_noise(frames, 6, 1)
        for f, x, y, z in zip(frames, a, b, c):
            assert np.array_equal(x.r, y.r)
            assert np.array_equal(x.r, x.g) and np.array_equal(x.r, x.b)
            diff = x.r.astype(int) - f.r.astype(int)
            assert np.abs(diff).max() <= workloads.NOISE_LEVELS
        assert any(not np.array_equal(x.r, z.r) for x, z in zip(a, c))


@dataclass(frozen=True)
class TinyWorkload:
    """One two-frame 80x60 clip through the float pipeline."""

    name: str = "tiny"
    resolution: Resolution = Resolution.HW_80
    fixed_point: bool = False
    expected_layers: tuple = ("grouping.correlate", "normalize.fuse")
    speed_units: int = 2

    def make_engine(self):
        cfg = EngineConfig(resolution=self.resolution)
        return HwPipeline(cfg) if self.fixed_point else Pipeline(cfg)

    def make_float_engine(self):
        return Pipeline(EngineConfig(resolution=self.resolution))

    def videos(self, seed):
        frames = synth.static_square_video(80, 60, frames=2)[0]
        box = workloads.target_boxes(80, 60)["static_square"](0)
        return [workloads.Video("static_square", tuple(frames), (box, box))]


SPEC = json.loads((child.ROOT / "BENCHMARK.json").read_text())


class TestRuns:
    def test_untraced_run_reports_every_end_to_end_metric(self):
        values, report, attempted, failed = child.measure(TinyWorkload(), 0, 0.0)
        metrics = child.select(values, SPEC["end_to_end"])
        assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(m["value"] > 0 for m in metrics.values())
        assert (attempted, failed) == (2, 0)
        assert report["popout_hits"] == "2/2"

    def test_clips_repeat_until_the_run_has_measured_long_enough(self):
        began = time.perf_counter()
        once = child.measure(TinyWorkload(), 0, 0.0)
        repeated = child.measure(TinyWorkload(), 0, 3 * (time.perf_counter() - began))
        assert once[1]["clip_runs"] == 1 and repeated[1]["clip_runs"] >= 2
        assert repeated[2] == 2 * repeated[1]["clip_runs"]
        assert repeated[1]["digest"] == once[1]["digest"]
        assert once[1]["timed_frames"] == 1
        assert repeated[1]["timed_frames"] == repeated[1]["clip_runs"]

    def test_traced_run_reports_every_per_layer_metric(self):
        values, report, attempted, failed, ok = child.measure_traced(TinyWorkload(), 0)
        metrics = child.select(values, SPEC["per_layer"])
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
        assert ok, report["problems"]
        assert report["digest"] == report["digest_traced"]
        assert metrics["grouping.correlate.calls"]["value"] == 6 * 3 * 41
        assert metrics["hwmodel.fixed_correlate.calls"]["value"] == 0
        assert 0.9 < metrics["trace.coverage"]["value"] <= 1.0

    def test_traced_fixed_run_scores_fidelity(self):
        workload = TinyWorkload(fixed_point=True, expected_layers=("hwmodel.fixed_correlate",))
        values, report, attempted, failed, ok = child.measure_traced(workload, 0)
        assert ok, report["problems"]
        assert (attempted, failed, report["frames"]) == (4, 0, 2)
        assert values["grouping.correlate.calls"] == 0
        assert values["hwmodel.fixed_correlate.calls"] == 6 * 3 * 41
        assert values["hwmodel.modeled_frame_cycles"] > 0
        assert 0.9 < report["quality"]["fidelity_pcc_min"]["value"] <= 1.0

    def test_missing_expected_layer_fails_the_traced_run(self):
        workload = TinyWorkload(expected_layers=("hwmodel.fixed_correlate",))
        *_, ok = child.measure_traced(workload, 0)
        assert not ok

    def test_workload_names_match_the_spec(self):
        assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)

