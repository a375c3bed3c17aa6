"""The benchmark's workloads: which frames, which engine, which targets.

Every workload uses the built-in synthetic videos. The engine under test
receives only frames; the target boxes stay on the benchmark side and
are used to score pop-out.

* ``ref640_float``: ``drifting_bar`` at 640x480 through the float
  ``Pipeline``. This is the reference mode the roadmap wants faster; its
  time goes to ``pyramid.bilinear_resize`` and 11x11
  ``grouping.correlate``. Per-frame cost does not depend on the frame
  index, so one frame is enough; it is both the set-up frame and the
  timed frame.
* ``hw80_float``: all ten ``synth.all_videos`` clips (100 frames) at
  80x60 through the float ``Pipeline``. The same grouping code runs 5x5
  kernels on small maps, where a change tuned for 640x480 can lose, and
  ``bilinear_resize`` is only reached from the fusion collapse.
* ``hw112_fixed``: the same 100 frames at 112x84 through ``HwPipeline``,
  the bit-accurate fixed-point model. ``grouping.correlate`` is never
  called; the fixed-point MAC loop dominates. It is the only workload on
  the fixed path and the one that scores fixed-versus-float fidelity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from podvs import EngineConfig, HwPipeline, Pipeline
from podvs import synth
from podvs.config import FrameRGB, Resolution

#: Largest absolute gray-level change the seeded noise adds to a pixel.
NOISE_LEVELS = 3

#: Frames of ``drifting_bar`` run at 640x480. One frame takes about
#: 30 s here; a second would double every run of this workload.
REF640_FRAMES = 1


@dataclass(frozen=True)
class Box:
    """Axis-aligned target box; x0/y0 inclusive, x1/y1 exclusive."""

    x0: int
    y0: int
    x1: int
    y1: int

    def contains(self, x: int, y: int) -> bool:
        return self.x0 <= x < self.x1 and self.y0 <= y < self.y1


@dataclass(frozen=True)
class Video:
    """One clip: its frames and, per frame, the target box or None."""

    name: str
    frames: tuple
    targets: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    resolution: Resolution
    fixed_point: bool
    #: Traced functions that must record calls on this workload.
    expected_layers: tuple
    #: Host-speed kernel units (about 2 ms each on the build host) timed
    #: before and after each clip run; 0 leaves times in wall seconds.
    speed_units: int = 50

    def config(self) -> EngineConfig:
        return EngineConfig(resolution=self.resolution)

    def make_engine(self):
        """A fresh engine in the workload's arithmetic."""
        cfg = self.config()
        return HwPipeline(cfg) if self.fixed_point else Pipeline(cfg)

    def make_float_engine(self):
        """The float reference at the workload's resolution."""
        return Pipeline(self.config())

    def videos(self, seed: int) -> list:
        width, height = self.resolution.width, self.resolution.height
        if self.resolution is Resolution.REFERENCE:
            clips = {"drifting_bar": synth.drifting_bar_video(width, height, REF640_FRAMES)}
        else:
            clips = synth.all_videos(width, height)
        targets = target_boxes(width, height)
        out = []
        for index, (name, frames) in enumerate(clips.items()):
            boxes = tuple(targets[name](n) if name in targets else None
                          for n in range(len(frames)))
            out.append(Video(name, tuple(add_noise(frames, seed, index)), boxes))
        return out


def _box(square) -> Box:
    return Box(square.x0, square.y0, square.x1, square.y1)


def drifting_bar_box(width: int, height: int, n: int) -> Box:
    """Bar position in frame n, by the generator's own formula."""
    bar_w = max(4, width // 16)
    x0 = (8 + 2 * n) % (width - bar_w)
    return Box(x0, height // 6, x0 + bar_w, height - height // 6)


def target_boxes(width: int, height: int) -> dict:
    """Video name -> (frame index -> target Box or None)."""
    onset = _box(synth.onset_square_video(width, height, frames=0)[1])
    static = _box(synth.static_square_video(width, height, frames=0)[1])
    patch = _box(synth.color_popout_video(width, height, frames=0)[1])
    return {
        "onset_square": lambda n: onset if n >= synth.ONSET_FRAME else None,
        "static_square": lambda n: static,
        "color_popout": lambda n: patch,
        "drifting_bar": lambda n: drifting_bar_box(width, height, n),
    }


def add_noise(frames, seed: int, stream: int) -> list:
    """Seed 0 returns the frames unchanged; any other seed adds gray noise.

    The same noise goes to all three planes, so a gray frame stays gray
    and the target boxes stay where they were.
    """
    if seed == 0:
        return list(frames)
    rng = np.random.default_rng([seed, stream])
    out = []
    for frame in frames:
        noise = rng.integers(-NOISE_LEVELS, NOISE_LEVELS + 1, size=frame.r.shape)
        planes = [np.clip(p.astype(np.int16) + noise, 0, 255) for p in (frame.r, frame.g, frame.b)]
        out.append(FrameRGB.from_planes(*planes))
    return out


_COMMON = (
    "channels.extract_all",
    "temporal.apply_temporal",
    "pyramid.bilinear_resize",
    "pyramid.collapse",
    "normalize.fuse",
    "normalize.local_maxima",
)
_GROUPING = (
    "grouping.correlate",
    "grouping.complex_edges",
    "grouping.center_surround",
    "grouping.von_mises_filter",
    "grouping.von_mises_sum",
    "grouping.border_ownership",
    "grouping.bo_masks",
    "grouping.grouping_activity",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hw80_float",
            Resolution.HW_80, False,
            _COMMON + _GROUPING + ("pyramid.nn_shift_resample",),
        ),
        Workload(
            "hw112_fixed",
            Resolution.HW_112, True,
            _COMMON + (
                "pyramid.nn_shift_resample",
                "hwmodel.fixed_correlate",
                "hwmodel.round_shift",
                "hwmodel.saturate",
                "hwmodel.complex_edge_fixed",
            ),
        ),
        Workload(
            "ref640_float",
            Resolution.REFERENCE, False,
            _COMMON + _GROUPING,
            # Blocks around a 30 s frame sample the host at two instants
            # while the frame integrates it over the whole span: over five
            # runs, dividing by them spread the times more (0.29 of the
            # median) than leaving them in wall seconds (0.15).
            speed_units=0,
        ),
    )
}
