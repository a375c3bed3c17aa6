"""Traced peak memory of the grouping chains and of warm reference steps.

    python3 tools/peaks.py

Prints the five traced peaks (``tracemalloc``) that the tier-1 tests
bound, one a line: those of a warm ``grouping_pyramid`` call on each of
the three chains (``chains``) as multiples of the bytes of the pyramid it
groups, then those of a warm 640x480 reference step of ``drifting_bar``,
whose gray frame groups 2 maps, and of ``six_map_clip``, which groups 6,
in float64 maps of the frame's size.  A call or step is warm when the
same call, or the clip's first frame, has filled the process-wide
operator caches (and the frame history) before tracing starts.  Then it
prints the peak of each stage of those two steps (``stage_peaks``), so
the stage that holds a step's peak can be read off.  The peaks count
Python-allocated bytes only, so they hold on any machine with the same
numpy and scipy builds; the program takes about 10 s on a 2-core host
and runs from this checkout's src/.
"""
from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from podvs import EngineConfig, HwPipeline, Pipeline, Resolution, grouping, synth  # noqa: E402
from podvs import pipeline  # noqa: E402
from podvs.grouping import FLOAT, grouping_pyramid  # noqa: E402
from podvs.hwmodel import FixedArith  # noqa: E402
from podvs.kernels import build_banks  # noqa: E402
from podvs.pyramid import build_hw_pyramid, build_reference_pyramid  # noqa: E402
from synth_digests import six_map_clip  # noqa: E402

#: Bytes of one 640x480 float64 map.
MAP_640_BYTES = 640 * 480 * 8


def traced_peak(fn, *args) -> int:
    """Peak bytes that ``tracemalloc`` traces while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def chains() -> dict:
    """The three grouping chains, as (pyramid, banks, backend): a seeded
    120x160 map's depth-5 reference pyramid through the 11x11 float banks,
    and a seeded 112x84 map of 14-bit words' hardware pyramid through the
    fixed-point banks and through the float 5x5 banks."""
    m = np.random.default_rng(43).uniform(0, 255, size=(120, 160))
    cfg = EngineConfig(resolution=Resolution.HW_112)
    words = np.random.default_rng(45).integers(0, 1 << 14, size=(84, 112)).astype(float)
    hw = build_hw_pyramid(words)
    return {
        "reference": (build_reference_pyramid(m, 5), build_banks(11), FLOAT),
        "fixed": (hw, HwPipeline(cfg).banks, FixedArith(cfg)),
        "float 5x5": (hw, build_banks(5), FLOAT),
    }


def chain_peak(pyr, banks, arith) -> float:
    """Traced peak of a warm ``grouping_pyramid`` call, in multiples of
    the bytes of the pyramid's levels."""
    grouping_pyramid(pyr, banks, arith)  # fills the process-wide operator caches
    return traced_peak(grouping_pyramid, pyr, banks, arith) / sum(
        level.nbytes for level in pyr.levels)


#: The stages of a reference step, each with the function whose call
#: starts it, in the order a channel runs them.  A stage lasts until the
#: next one starts, and the first from the step's start, so together they
#: cover the step: ``pyramid`` is P2, ``P3`` runs from the
#: ``surround_levels`` call to the first P4, and ``fusion`` covers each
#: channel's conspicuity map and the final sum.
STAGE_STARTS = (
    ("extract_all", pipeline, "extract_all"),
    ("pyramid", pipeline, "build_channel_pyramid"),
    ("P3", pipeline, "surround_levels"),
    ("P4", grouping, "von_mises_filter"),
    ("P5", grouping, "von_mises_sum"),
    ("P6", grouping, "border_ownership"),
    ("P7", grouping, "bo_masks"),
    ("fusion", pipeline, "conspicuity"),
)


def stage_peaks(frames) -> dict:
    """Traced peak bytes of each stage (``STAGE_STARTS``) of a reference
    step of frames[1], after frames[0] has filled the operator caches and
    the history; the largest is the step's peak (``warm_step_peak``)."""
    engine = Pipeline(EngineConfig(resolution=Resolution.REFERENCE))
    engine.step(frames[0])
    peaks = dict.fromkeys([stage for stage, _, _ in STAGE_STARTS], 0)
    current = STAGE_STARTS[0][0]

    def starting(stage, fn):
        def run(*args):
            nonlocal current
            peaks[current] = max(peaks[current], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            current = stage
            return fn(*args)
        return run

    originals = [(module, name, getattr(module, name)) for _, module, name in STAGE_STARTS]
    tracemalloc.start()
    try:
        for stage, module, name in STAGE_STARTS:
            setattr(module, name, starting(stage, getattr(module, name)))
        engine.step(frames[1])
        peaks[current] = max(peaks[current], tracemalloc.get_traced_memory()[1])
        return peaks
    finally:
        tracemalloc.stop()
        for module, name, fn in originals:
            setattr(module, name, fn)


def warm_step_peak(frames) -> int:
    """Traced peak bytes of the warm reference step of ``stage_peaks``."""
    return max(stage_peaks(frames).values())


def main() -> None:
    for name, chain in chains().items():
        print(f"{name} chain: {chain_peak(*chain):.2f}x its pyramid's bytes")
    steps = {"gray `drifting_bar`": synth.drifting_bar_video(640, 480, frames=2),
             "six-map `six_map_clip`": six_map_clip(640, 480, 2)}
    columns = {name: stage_peaks(frames) for name, frames in steps.items()}
    for name, col in columns.items():
        print(f"warm 640x480 step, {name}: {max(col.values()) / MAP_640_BYTES:.2f} maps")
    print("stage peaks of the warm 640x480 steps, in maps: gray, six-map")
    for stage, _, _ in STAGE_STARTS:
        print(f"  {stage:<12}" + "".join(f"{col[stage] / MAP_640_BYTES:8.2f}"
                                          for col in columns.values()))


if __name__ == "__main__":
    main()
