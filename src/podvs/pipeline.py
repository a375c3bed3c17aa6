"""Per-frame orchestration: history, channels, grouping, fusion.

A Pipeline instance owns its frame history; everything downstream of
channel extraction is pure.  The nine channels have six distinct inputs
(the four orientation channels share the gray frame), each grouped at
most once, serially, in the instance's ``arith`` backend: float64 here,
fixed point in ``hwmodel.HwPipeline``.  The mode's pyramid carries its
resampler into the grouping chain (``build_channel_pyramid``).  A zero
map groups to +0.0 on every level, on both paths of the chain, so
reference mode skips inputs with no non-zero pixel, such as the
colour-opponency maps of a gray frame: they share one pyramid of zeros.
The reduced modes group every input while the benchmark's tests pin
their correlation counts.  In every mode ``fuse`` turns a pyramid of
zeros into a zero conspicuity map without normalizing its levels.
"""
from __future__ import annotations

import time

import numpy as np

from .channels import ORIENTATION_CHANNELS, ChannelId, extract_all
from .config import EngineConfig, FrameHistory, FrameRGB, Resolution, validate_frame
from .errors import DimensionError
from .grouping import FLOAT, grouping_pyramid
from .kernels import build_banks
from .normalize import fuse
from .pyramid import ImagePyramid, build_hw_pyramid, build_reference_pyramid
from .pyramid import bilinear_resize  # noqa: F401  (bench/tests reads pipeline.bilinear_resize)
from .temporal import STRONGLY_PHASIC, WEAKLY_PHASIC, make_kernel


def build_channel_pyramid(map_: np.ndarray, cfg: EngineConfig) -> ImagePyramid:
    """Pyramid for one channel map under the configured mode.

    Reference mode shrinks by sqrt(2) with bilinear resampling; the
    reduced modes use the fixed hardware level structure (nearest
    neighbor through the frozen shift addresses) regardless of the
    arithmetic, so fixed-versus-float comparisons isolate precision.
    Nearest-neighbor levels keep the map's element type, so raw
    fixed-point words go through unchanged.
    """
    if cfg.resolution is Resolution.REFERENCE:
        return build_reference_pyramid(map_, cfg.pyramid_depth)
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

    def _grouping(self, channel_map: np.ndarray, oriented: bool):
        pyr = build_channel_pyramid(self.arith.ingest(channel_map, oriented), self.cfg)
        levels = grouping_pyramid(pyr, self.banks, self.cfg.inhibition_weight, self.arith)
        return [self.arith.finish(level) for level in levels]

    def step(self, frame: FrameRGB) -> np.ndarray:
        """Advance one frame and return its saliency map in [0, 1]."""
        validate_frame(frame, self.cfg)
        self.history.push(frame)
        channels = extract_all(self.history, self.kernel_strong, self.kernel_weak)
        for cid in ORIENTATION_CHANNELS[1:]:
            del channels[cid]  # the same gray array as O_0's
        grouped, zeros = {}, None
        # reference mode only: bench tests pin the reduced modes' correlate calls
        skip_zero = self.cfg.resolution is Resolution.REFERENCE
        for cid in list(channels):
            map_ = channels.pop(cid)  # popped, so each map is freed once it is grouped
            if skip_zero and not map_.any():
                zeros = zeros or [np.zeros(level.shape)
                                  for level in build_channel_pyramid(map_, self.cfg).levels]
                grouped[cid] = zeros
            else:
                grouped[cid] = self._grouping(map_, cid in ORIENTATION_CHANNELS)
        grouped.update(dict.fromkeys(ORIENTATION_CHANNELS, grouped[ChannelId.O_0]))
        return fuse(grouped, self.cfg)


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
