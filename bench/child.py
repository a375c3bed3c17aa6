"""Measure one workload in this process.

run.py starts this script in a fresh process whose BLAS/OpenMP thread
counts and PODVS_THREADS are pinned to 1. It prints one report line
(host facts, seed, map digest, map-quality scores and, when traced,
every wrapped function's figures) and then the result line the
benchmark contract asks for, with the metrics named in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import podvs  # noqa: E402
import scoring  # noqa: E402
from hostspeed import HostSpeed, slowdown  # noqa: E402
from tracer import Installed, Tracer, layer_functions  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if not Path(podvs.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"podvs was imported from {podvs.__file__}, not from {SRC}")


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_at_start": os.getloadavg(),
    }


def plain_step(engine, frame):
    return engine.step(frame)


def run_video(make_engine, video, shape, step=plain_step):
    """One clip on one engine.

    Returns (set-up seconds, step seconds per frame, maps, engine). Set-up
    runs from engine construction to the first map. A frame whose step
    raises gets None in both lists; a map that fails the check gets None
    in maps.
    """
    start = time.perf_counter()
    try:
        engine = make_engine()
    except Exception:
        traceback.print_exc()
        return None, [None] * len(video.frames), [None] * len(video.frames), None
    setup, steps, maps = None, [], []
    for index, frame in enumerate(video.frames):
        began = time.perf_counter()
        try:
            map_ = step(engine, frame)
        except Exception:
            traceback.print_exc()
            steps.append(None)
            maps.append(None)
            continue
        ended = time.perf_counter()
        if index == 0:
            setup = ended - start
        steps.append(ended - began)
        maps.append(map_ if scoring.map_ok(map_, *shape) else None)
    return setup, steps, maps, engine


def timed(steps) -> list:
    """Step seconds of the frames after the first that did not raise.

    A one-frame clip has no later frame; its first frame's step counts.
    """
    return [s for s in (steps[1:] or steps) if s is not None]


def missing(maps) -> int:
    return sum(m is None for m in maps)


def fidelity(workload, videos, fixed_maps) -> dict:
    """Per video, the mean per-frame PCC of fixed maps against float maps.

    Frames whose PCC is undefined (a constant map) or whose fixed map is
    missing are left out of the mean.
    """
    per_video = {}
    for video, maps in zip(videos, fixed_maps):
        engine = workload.make_float_engine()
        values = []
        for frame, fixed in zip(video.frames, maps):
            reference = engine.step(frame)
            r = scoring.pcc(fixed, reference) if fixed is not None else None
            if r is not None:
                values.append(r)
        per_video[video.name] = statistics.fmean(values) if values else None
    return per_video


def measure(workload, seed: int, seconds: float):
    """The untraced run: end-to-end metrics and the report.

    Every clip runs once, which fixes the digest and the quality scores.
    Clips then repeat on fresh engines until the run has measured for
    `seconds`; every repeat adds timing samples. When the workload sets
    speed_units, each clip run sits between two blocks of the host-speed
    kernel and its times are divided by the host's slowdown over it (see
    hostspeed.py).
    """
    videos = workload.videos(seed)
    shape = (workload.resolution.height, workload.resolution.width)
    digest = scoring.MapDigest()
    speed = HostSpeed()
    setups, steps, slowdowns, wall_steps = [], [], [], []
    attempted = failed = hits = targets = saturated = 0
    started = time.perf_counter()
    before = speed.seconds_per_unit(workload.speed_units) if workload.speed_units else None
    for index, video in enumerate(itertools.cycle(videos)):
        if index >= len(videos) and time.perf_counter() - started >= seconds:
            break
        setup, video_steps, maps, engine = run_video(workload.make_engine, video, shape)
        factor = 1.0
        if workload.speed_units:
            after = speed.seconds_per_unit(workload.speed_units)
            factor = slowdown(before, after)
            before = after
            slowdowns.append(factor)
        attempted += len(maps)
        failed += missing(maps)
        if setup is not None:
            setups.append(setup / factor)
        steps.extend(s / factor for s in timed(video_steps))
        if index < len(videos):
            wall_steps.extend(timed(video_steps))
            for map_ in maps:
                digest.add(map_)
            h, t = scoring.popout_hits(maps, video.targets)
            hits, targets = hits + h, targets + t
            if workload.fixed_point and engine is not None:
                saturated += engine.profile.saturations
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if not steps or not setups:
        raise SystemExit("no frame was timed")
    metrics = {
        "frame_s_p50": statistics.median(steps),
        "frames_per_s": len(steps) / sum(steps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    report = {
        "digest": digest.hexdigest(),
        "clips": len(videos),
        "frames_per_pass": sum(len(v.frames) for v in videos),
        "clip_runs": index,
        "timed_frames": len(steps),
        "wall_frame_s_p50_first_pass": statistics.median(wall_steps) if wall_steps else None,
        "host_slowdown": scoring.summary(slowdowns) if slowdowns else None,
        "popout_hits": f"{hits}/{targets}",
        "quality": {
            "popout_hit_frac": {"value": hits / targets if targets else None, "unit": "ratio"},
            "failed_frac": {"value": failed / attempted, "unit": "ratio"},
        },
    }
    if workload.fixed_point:
        report["saturated_words"] = saturated
    return metrics, report, attempted, failed


def measure_traced(workload, seed: int):
    """The traced run: per-layer metrics, checked against an untraced twin.

    Each clip runs untraced and then traced on a fresh engine, so both
    passes see the same machine state; their maps must be bit-identical.
    Engines are built before the wrappers go in, so set-up work is not
    counted as per-frame work. On the fixed-point workload this run also
    scores fidelity against the float reference, outside any timing.
    """
    videos = workload.videos(seed)
    shape = (workload.resolution.height, workload.resolution.width)
    tracer = Tracer()

    def traced_step(engine, frame):
        return tracer.call("step", engine.step, frame)

    digests = {"untraced": scoring.MapDigest(), "traced": scoring.MapDigest()}
    steps = {"untraced": [], "traced": []}
    saturated = {"untraced": 0, "traced": 0}
    untraced_maps = []
    attempted = failed = frame_cycles = 0
    for video in videos:
        for mode in ("untraced", "traced"):
            engine = workload.make_engine()
            if mode == "traced":
                with Installed(tracer):
                    _, video_steps, maps, _ = run_video(lambda: engine, video, shape, traced_step)
            else:
                _, video_steps, maps, _ = run_video(lambda: engine, video, shape)
                untraced_maps.append(maps)
            attempted += len(maps)
            failed += missing(maps)
            steps[mode].extend(s for s in video_steps if s is not None)
            for map_ in maps:
                digests[mode].add(map_)
            if workload.fixed_point:
                saturated[mode] += engine.profile.saturations
                frame_cycles = engine.profile.frame_cycles
    frames = sum(len(v.frames) for v in videos)

    per_layer = {}
    for name in layer_functions().values():
        per_layer[f"{name}.calls"] = tracer.calls.get(name, 0) / frames
        per_layer[f"{name}.self_s"] = tracer.self_s.get(name, 0.0) / frames
    for key in ("grouping.correlate.macs", "hwmodel.fixed_correlate.macs",
                "normalize.local_maxima.peaks"):
        per_layer[key] = tracer.counters.get(key, 0.0) / frames
    per_layer["hwmodel.saturated_words"] = saturated["traced"]
    per_layer["hwmodel.modeled_frame_cycles"] = frame_cycles
    per_layer["trace.coverage"] = 1.0 - tracer.self_s["step"] / tracer.total_s["step"]
    per_layer["trace.overhead"] = (
        statistics.median(steps["traced"]) / statistics.median(steps["untraced"]) - 1.0
    )

    problems = []
    if digests["traced"].hexdigest() != digests["untraced"].hexdigest():
        problems.append("traced maps differ from untraced maps")
    if saturated["traced"] != saturated["untraced"]:
        problems.append("traced saturation count differs from untraced")
    for name in workload.expected_layers:
        if not tracer.calls.get(name):
            problems.append(f"{name} recorded no calls")
    for problem in problems:
        print(f"{workload.name}: {problem}", file=sys.stderr)
    report = {
        "digest": digests["untraced"].hexdigest(),
        "digest_traced": digests["traced"].hexdigest(),
        "frames": frames,
        "problems": problems,
        "layers": {
            name: {
                "calls": tracer.calls[name] / frames,
                "self_s": tracer.self_s[name] / frames,
                "total_s": tracer.total_s[name] / frames,
            }
            for name in sorted(tracer.calls)
        },
    }
    if workload.fixed_point:
        per_video = fidelity(workload, videos, untraced_maps)
        scored = [v for v in per_video.values() if v is not None]
        report["quality"] = {"fidelity_pcc_min": {
            "value": min(scored) if scored else None, "unit": "ratio"}}
        report["fidelity_pcc_per_clip"] = per_video
    return per_layer, report, attempted, failed, not problems


def select(values: dict, specs) -> dict:
    """The metrics BENCHMARK.json names, in its order, with its units."""
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    host = host_facts()

    if args.trace:
        values, report, attempted, failed, checks_ok = measure_traced(workload, args.seed)
        metrics = select(values, spec["per_layer"])
    else:
        values, report, attempted, failed = measure(workload, args.seed, args.seconds)
        checks_ok = True
        metrics = select(values, spec["end_to_end"])
    report.update(workload=workload.name, seed=args.seed, trace=args.trace, host=host)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": checks_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
