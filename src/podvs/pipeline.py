"""Per-frame orchestration: history, channels, grouping, fusion.

A Pipeline instance owns its frame history; everything downstream of
channel extraction is pure.  The nine channels have six distinct inputs
(the four orientation channels share the gray frame), each grouped at
most once, serially, in the instance's ``arith`` backend: float64 here,
fixed point in ``hwmodel.HwPipeline``.  The mode's pyramid carries its
resampler into the grouping chain (``build_channel_pyramid``), which
inhibits with unit weight.  Each channel map and its pyramid are held only
by P3's call (``Pipeline._grouping``), so the shared path frees both
after P3, and each grouped channel becomes its conspicuity map
(``normalize.conspicuity``) at once, so its grouping levels are freed
before the next channel is grouped; ``fuse`` then sums the nine maps.  A
zero map groups to +0.0 on every level, on both paths of the chain, and
its conspicuity map is zero, so reference mode skips inputs with no
non-zero pixel, such as the colour-opponency maps of a gray frame: it
frees them before it groups any map, and every one of them reads one
read-only broadcast zero.  The reduced modes group every input while the
benchmark's tests pin their correlation counts.
"""
from __future__ import annotations

import time

import numpy as np

from .channels import ORIENTATION_CHANNELS, ChannelId, extract_all
from .config import EngineConfig, FrameHistory, FrameRGB, Resolution, validate_frame
from .errors import DimensionError
from .grouping import FLOAT, group_levels, surround_levels
from .grouping import grouping_pyramid  # noqa: F401  (bench/tests reads pipeline.grouping_pyramid)
from .kernels import build_banks
from .normalize import conspicuity, fuse
from .pyramid import REFERENCE_DEPTH, ImagePyramid, build_hw_pyramid, build_reference_pyramid
from .pyramid import bilinear_resize  # noqa: F401  (bench/tests reads pipeline.bilinear_resize)
from .temporal import STRONGLY_PHASIC, WEAKLY_PHASIC, make_kernel


def build_channel_pyramid(map_: np.ndarray, cfg: EngineConfig) -> ImagePyramid:
    """Pyramid for one channel map under the configured mode.

    Reference mode shrinks by sqrt(2) over ``REFERENCE_DEPTH`` bilinear
    levels; the reduced modes use ``pyramid.HW_LEVELS`` (nearest neighbor
    through the frozen shift addresses) regardless of the arithmetic, so
    fixed-versus-float comparisons isolate precision.  Nearest-neighbor
    levels keep the map's element type, so raw fixed-point words go
    through unchanged.
    """
    if cfg.resolution is Resolution.REFERENCE:
        return build_reference_pyramid(map_, REFERENCE_DEPTH)
    return build_hw_pyramid(map_)


class Pipeline:
    """Stateful per-frame saliency for one video; kernels from ``build_banks``."""

    def __init__(self, cfg: EngineConfig):
        self.cfg = cfg
        self.banks = build_banks(cfg.kernel_size)
        self.kernel_strong = make_kernel(STRONGLY_PHASIC, cfg.frame_period_ms)
        self.kernel_weak = make_kernel(WEAKLY_PHASIC, cfg.frame_period_ms)
        self.history = FrameHistory()
        self.arith = FLOAT

    def _grouping(self, channels: dict, cid: ChannelId) -> list:
        """The finished grouping levels of ``channels[cid]``, which is popped.

        The map's pyramid is only the argument of P3's call
        (``surround_levels``), so it is freed when that call returns: the
        shared path holds no level from P4 on.
        """
        oriented = cid in ORIENTATION_CHANNELS
        surround = surround_levels(
            build_channel_pyramid(self.arith.ingest(channels.pop(cid), oriented), self.cfg),
            self.banks, self.arith)
        levels = group_levels(surround, self.banks, self.arith)
        return [self.arith.finish(level) for level in levels]

    def step(self, frame: FrameRGB) -> np.ndarray:
        """Advance one frame and return its saliency map in [0, 1]."""
        validate_frame(frame, self.cfg)
        self.history.push(frame)
        channels = extract_all(self.history, self.kernel_strong, self.kernel_weak)
        for cid in ORIENTATION_CHANNELS[1:]:
            del channels[cid]  # the same gray array as O_0's
        maps = {}
        # reference mode only: bench tests pin the reduced modes' correlate calls
        if self.cfg.resolution is Resolution.REFERENCE:
            zero = np.broadcast_to(0.0, (frame.height, frame.width))
            for cid in [cid for cid, map_ in channels.items() if not map_.any()]:
                del channels[cid]
                maps[cid] = zero  # the conspicuity map of a zero map
        for cid in list(channels):
            # formed as soon as the channel is grouped, so its levels are freed
            maps[cid] = conspicuity(self._grouping(channels, cid))
        maps.update(dict.fromkeys(ORIENTATION_CHANNELS, maps[ChannelId.O_0]))
        return fuse(maps)


def run_sequence(frames, engine: Pipeline):
    """Run a whole frame sequence through one engine, timing every step.

    The engine is a ``Pipeline`` or an ``hwmodel.HwPipeline``, whose
    ``profile`` ledger the steps advance.  Returns (maps, wall-clock
    seconds of each step).
    """
    frames = list(frames)
    if not frames:
        raise DimensionError("empty frame sequence")
    maps, timings = [], []
    for frame in frames:
        start = time.perf_counter()
        maps.append(engine.step(frame))
        timings.append(time.perf_counter() - start)
    return maps, timings
