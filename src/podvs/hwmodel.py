"""Bit-accurate software model of the hardware grouping pipeline.

The hardware splits a frame into seven stages per feature channel:

  P1  ingest of the host-extracted channel map, 8 bits per pixel
  P2  nearest-neighbor pyramid via shift-approximated addresses
  P3  complex-edge and ON/OFF center-surround filtering (9 parallel
      5x5 MAC banks, integer square root for the complex response)
  P4  von Mises association-field filtering (16 parallel units)
  P5  across-level von Mises sum (in place, power-of-two weights)
  P6  border-ownership responses
  P7  winner masks (computed on the host, as in the real system) and
      the grouping responses, own minus opposing side (unit inhibition)

P2-P7 are the float pipeline's own chain (``pyramid.build_hw_pyramid``
and ``grouping.py``) run with the ``FixedArith`` backend below, whose
``ingest`` is P1.  Its words are raw two's-complement values held as
integer-valued float64 arrays, with single wide accumulators for the
weighted sums, round-to-nearest-even on the one rounding per operation
and saturation on range overflow.  Every word, coefficient, product and
accumulator is an integer below 2**53, which float64 holds exactly, so
every order of summation gives the same bits, and the rounding is a
power-of-two scale and ``np.rint``.  The MAC follows the board's banks,
whose line buffers hold the rows a 5x5 window spans: a map is laid out
as its row stack (``row_stack``), the k column-shifted copies of the map
zero-padded by k // 2, and each kernel reduces it with one (k, k) by
(k, n) matrix product and a sum of k row-shifted slices.  The backend's
``share`` hands one row stack to every kernel that meets the map (P3's 9
on a level, P4's 8 on a polarity); P7's 16 maps each meet one kernel and
get a row stack of their own.  Normalization and fusion run on the host
in floating point, exactly like the reference pipeline.

Each stage also carries a cycle/block-memory cost model reproducing the
published per-stage accounting.  The derived frame rate is not read from
it: it is the measured board rate of the mode (``ANCHORS``, which lists
the board's modes) scaled by the channels run in parallel.  The cycle
table is compared with those anchors, not fitted to them: a 112x84
channel pass models about 13 percent more cycles than the measured rate
allows, an 80x60 pass about 28 percent fewer.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import COEFFICIENT_BITS, EngineConfig, Resolution
from .errors import ConfigError
from .kernels import map_kernels
from .normalize import fuse  # noqa: F401  (bench/tests reads hwmodel.fuse)
from .pipeline import Pipeline
from .pyramid import hw_level_sizes

CLOCK_HZ = 100e6
MAC_CYCLES_PER_PIXEL = 75  # 25 MACs at 3 CC each, all 9 kernels in parallel
#: Passes through P1-P7 per frame: one per feature channel.
CHANNEL_PASSES = 9


@dataclass(frozen=True)
class FixedFormat:
    """Two's-complement fixed-point word layout."""

    total_bits: int
    fraction_bits: int
    signed: bool = True

    def __post_init__(self):
        # Words are held in float64, which is exact for integers up to 2**53.
        if self.total_bits < 1 or self.total_bits > 53:
            raise ConfigError("total_bits must be in 1..53")
        if self.fraction_bits < 0:
            raise ConfigError("fraction_bits must be >= 0")

    @property
    def max_raw(self) -> int:
        return (1 << (self.total_bits - 1)) - 1 if self.signed else (1 << self.total_bits) - 1

    @property
    def min_raw(self) -> int:
        return -(1 << (self.total_bits - 1)) if self.signed else 0

    @property
    def scale(self) -> float:
        return float(1 << self.fraction_bits)


#: Channel ingest words (8 bits on the wire).  Orientation maps carry
#: plain pixels scaled into [0, 1); the temporally filtered channels are
#: signed and pre-scaled by the gain below.
INGEST_ORIENTATION = FixedFormat(8, 8, signed=False)
INGEST_TEMPORAL = FixedFormat(8, 7, signed=True)
ORIENTATION_GAIN = 1.0 / 256.0
#: The temporal channels peak near +-3 on typical content (worst-case
#: bound +-8.4 for a full-range flip), so the wire covers +-8 and lets
#: pathological extremes saturate silently.
TEMPORAL_GAIN = 1.0 / 8.0
#: Kernel coefficients.
KERNEL_FORMAT = FixedFormat(COEFFICIENT_BITS, 14, signed=True)
#: On-chip working gain cap: channel values enter the intermediate
#: words scaled by a power of two so they occupy the word instead of
#: its bottom bits.  The one value-by-value multiply in the pipeline
#: (the border-ownership modulation) shifts the extra gain back out;
#: everywhere else the scaling rides along and cancels in the host-side
#: range normalization.
WORKING_GAIN_CAP = 6
#: Integer bits reserved for the un-gained value range of the stages.
RANGE_GUARD_BITS = 3


def working_gain_shift(fmt: FixedFormat) -> int:
    """Ingest gain exponent: fill the headroom, capped, never negative."""
    headroom = fmt.total_bits - 1 - fmt.fraction_bits - RANGE_GUARD_BITS
    return max(0, min(WORKING_GAIN_CAP, headroom))


def quantize(values: np.ndarray, fmt: FixedFormat):
    """Round-to-nearest-even quantization with silent saturation.

    Returns (raw words as an integer-valued float64 array, number of
    saturated elements).
    """
    raw = np.rint(np.asarray(values, dtype=np.float64) * fmt.scale)
    return saturate(raw, fmt)


def dequantize(raw: np.ndarray, fmt: FixedFormat) -> np.ndarray:
    return np.asarray(raw, dtype=np.float64) / fmt.scale


def round_shift(raw, shift: int):
    """Arithmetic right shift (left for a negative shift) with round-half-even.

    Scaling by a power of two is exact in float64 and ``rint`` rounds
    half to even, so this is exact for integer words below 2**53.
    """
    return np.rint(raw * 2.0 ** -shift)


def saturate(raw, fmt: FixedFormat):
    """Clamp raw words into the format; returns (raw, overflow count).

    When every word is in range, and for an empty array, the input
    itself comes back, not a copy: every caller passes a fresh temporary.
    Otherwise the words come back clamped in a copy, and the input is
    left as it was.
    """
    if raw.size == 0 or (raw.min() >= fmt.min_raw and raw.max() <= fmt.max_raw):
        return raw, 0
    overflow = int(np.count_nonzero((raw < fmt.min_raw) | (raw > fmt.max_raw)))
    return np.clip(raw, fmt.min_raw, fmt.max_raw), overflow


class _Flags:
    """Mutable saturation/overflow tally for one run."""

    def __init__(self):
        self.saturations = 0

    def add(self, n: int):
        self.saturations += int(n)


@dataclass(frozen=True)
class _Rows:
    """A ``row_stack`` and its map's ``shape``: it stands in for the map."""

    shape: tuple
    values: np.ndarray


def row_stack(map_, size: int) -> _Rows:
    """The size column-shifted copies of a map zero-padded by size // 2,
    one (size, (h + 2 * (size // 2)) * w) array, the software form of the
    board's line buffers: row dx is the padded map's columns dx to dx + w,
    flattened, so tap (dy, dx) of pixel (y, x) is word (y + dy) * w + x
    of row dx."""
    h, w = map_.shape
    half = size // 2
    padded = np.zeros((h + 2 * half, w + 2 * half))
    padded[half : half + h, half : half + w] = map_
    rows = np.empty((size, h + 2 * half, w))
    for dx in range(size):
        rows[dx] = padded[:, dx : dx + w]
    return _Rows(map_.shape, rows.reshape(size, -1))


def fixed_correlate(raw_map, kernel_raw, in_fmt: FixedFormat, out_fmt: FixedFormat,
                    flags: _Flags):
    """Zero-padded correlation with MAC semantics at every pixel.

    ``raw_map`` is a map of words, laid out here as its ``row_stack``, or
    the row stack that the chain shares among the kernels meeting one map.
    One matrix product weighs every row with every kernel row, r = kernel
    @ rows, and the accumulator sums the size slices r[dy] shifted by dy
    map rows, starting from +0.0 as a cleared register does.  Words and
    coefficients are integers and ``EngineConfig``'s word-layout check
    keeps the accumulator below 2**48, inside float64's exact integers,
    so every partial sum is exact: the bits depend neither on the order
    of summation nor on the BLAS thread count.
    """
    if not isinstance(raw_map, _Rows):
        raw_map = row_stack(raw_map, kernel_raw.shape[0])
    h, w = raw_map.shape
    acc = np.zeros(h * w)
    for dy, products in enumerate(kernel_raw @ raw_map.values):
        acc += products[dy * w : dy * w + h * w]
    shift = in_fmt.fraction_bits + KERNEL_FORMAT.fraction_bits - out_fmt.fraction_bits
    out, sat = saturate(round_shift(acc.reshape(h, w), shift), out_fmt)
    flags.add(sat)
    return out


def _isqrt(values: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(n)) for non-negative integers up to 2**52:
    float64's sqrt is correctly rounded, hence monotone, and its floor is
    exact at both ends, k**2 - 1 and k**2, of every k <= 2**26."""
    return np.floor(np.sqrt(np.asarray(values, dtype=np.float64)))


def complex_edge_fixed(even_raw, odd_raw):
    """Integer square root of even^2 + odd^2, the IP-core equivalent.

    Operands in Qf give a Q2f sum of squares, so the integer root is
    back in Qf with floor rounding (within 1 ULP of the real result).
    """
    sq = even_raw * even_raw + odd_raw * odd_raw
    return _isqrt(sq)


# --------------------------------------------------------------------
# Stage cost model
# --------------------------------------------------------------------

@dataclass(frozen=True)
class StageCost:
    cycles: int
    bram_bits: int


def stage_costs(resolution: Resolution) -> dict:
    """Cycles and BRAM bits per stage for one channel pass.

    The per-pixel costs follow the published FSM structure: a 5x5 patch
    load is 25 CC, the weighted sum 75 CC (25 MACs, 3 CC each), the
    square root 10 CC, and single-word operations 1 CC.  P1 transfer
    runs on the host link and carries no FPGA cycles here.
    """
    px = [w * h for w, h in hw_level_sizes(resolution.width, resolution.height)]
    total_px = sum(px)
    levels = len(px)
    p3_per_pixel = 25 + MAC_CYCLES_PER_PIXEL + 10 + 1 + 3   # load, MACs, sqrt, invert, store
    p4_per_pixel = 25 + MAC_CYCLES_PER_PIXEL + 13 + 1       # load, MACs, addressing, store
    p5_cycles = 6 * sum(p * (levels - j) for j, p in enumerate(px))
    p7_per_pixel = 2 * (25 + MAC_CYCLES_PER_PIXEL) + 1 + 1  # two masked filterings, combine, store
    return {
        "P1": StageCost(0, resolution.width * resolution.height * 8),
        "P2": StageCost(px[1] * 5, sum(px[1:]) * 8),
        "P3": StageCost(total_px * p3_per_pixel, 6 * total_px * 8),
        "P4": StageCost(total_px * p4_per_pixel, 16 * total_px * 8),
        "P5": StageCost(p5_cycles, 0),
        "P6": StageCost(px[0] * 6, 8 * total_px * 8),
        "P7": StageCost(px[0] * p7_per_pixel, 4 * total_px * 8),
    }


def channel_pass_cycles(resolution: Resolution) -> int:
    return sum(c.cycles for c in stage_costs(resolution).values())


#: The board's modes and their measured anchors: resolution -> (channels
#: in parallel, frames/s).  The anchor's parallelism is the mode's default.
ANCHORS = {Resolution.HW_112: (1, 2.079), Resolution.HW_80: (2, 5.190)}


def _parallelism(resolution: Resolution, channels_parallel: int | None) -> int:
    """The requested channel parallelism, or the mode's anchor's."""
    if resolution not in ANCHORS:
        raise ConfigError("hardware model requires a reduced-resolution mode")
    if channels_parallel is None:
        return ANCHORS[resolution][0]
    if not 1 <= channels_parallel <= CHANNEL_PASSES:
        raise ConfigError(f"channels_parallel must be >= 1 and <= {CHANNEL_PASSES}, the "
                          f"channels of a frame; got {channels_parallel}")
    return channels_parallel


def frame_rate(resolution: Resolution, channels_parallel: int) -> float:
    """Board frames per second for a given channel parallelism: the mode's
    measured anchor rate, scaled by channels_parallel over the anchor's."""
    n = _parallelism(resolution, channels_parallel)
    parallel, rate = ANCHORS[resolution]
    return rate * n / parallel


def _stage_display(name: str, bits: int) -> str:
    """Published convention: P1 in kilobits, the rest in kilobytes.

    Values are truncated to one decimal, matching the printed figures.
    """
    if name == "P1":
        return f"{math.floor(bits / 100) / 10:.1f} Kbit"
    return f"{math.floor(bits / 800) / 10:.1f} KB"


class HwProfile:
    """Cycle and block-memory ledger for a hardware-model run."""

    def __init__(self, cfg: EngineConfig, channels_parallel: int | None = None):
        self.resolution = cfg.resolution
        self.channels_parallel = _parallelism(cfg.resolution, channels_parallel)
        self.stage = stage_costs(cfg.resolution)
        self.frames = 0
        self.saturations = 0

    @property
    def frame_cycles(self) -> int:
        """FPGA cycles per frame: the channel passes in passes/parallel batches."""
        cycles = channel_pass_cycles(self.resolution) * CHANNEL_PASSES
        return int(round(cycles / self.channels_parallel))

    @property
    def total_cycles(self) -> int:
        return self.frame_cycles * self.frames

    @property
    def derived_frame_rate(self) -> float:
        return frame_rate(self.resolution, self.channels_parallel)

    def to_json(self) -> str:
        doc = {
            "resolution": str(self.resolution),
            "channels_parallel": self.channels_parallel,
            "clock_hz": CLOCK_HZ,
            "stages": {
                name: {"cycles": c.cycles, "bram_bits": c.bram_bits}
                for name, c in self.stage.items()
            },
            "channel_pass_cycles": channel_pass_cycles(self.resolution),
            "frame_cycles": self.frame_cycles,
            "frames": self.frames,
            "total_cycles": self.total_cycles,
            "derived_frame_rate_hz": self.derived_frame_rate,
            "saturations": self.saturations,
        }
        return json.dumps(doc, indent=2)

    def to_text(self) -> str:
        lines = [
            f"hardware profile, {self.resolution}, "
            f"{self.channels_parallel} channel(s) in parallel, "
            f"{CLOCK_HZ / 1e6:g} MHz clock",
        ]
        for name, cost in self.stage.items():
            lines.append(
                f"  {name}: {cost.cycles} CC  {cost.bram_bits} bits"
                f" ({_stage_display(name, cost.bram_bits)})"
            )
        lines.append(
            "  note: published stage figures mix units; P1 is printed in"
            " kilobits, later stages in kilobytes"
        )
        # Block memory scales linearly: n channels need n single-channel budgets.
        bits = sum(cost.bram_bits for cost in self.stage.values())
        lines.append(f"  single channel total: {bits} bits")
        lines.append(
            f"  configured ({self.channels_parallel} ch): "
            f"{bits * self.channels_parallel} bits"
        )
        factor = CHANNEL_PASSES / self.channels_parallel
        lines.append(
            f"  {CHANNEL_PASSES}-channel extrapolation (x{factor:g} of configured): "
            f"{bits * CHANNEL_PASSES} bits"
        )
        lines.append(f"  per channel pass: {channel_pass_cycles(self.resolution)} CC")
        lines.append(f"  per frame ({CHANNEL_PASSES} channels): {self.frame_cycles} CC")
        lines.append("  P7 winner masks run on the host: zero FPGA cycles")
        lines.append(f"  derived frame rate: {self.derived_frame_rate:.3f} Hz")
        lines.append(f"  frames processed: {self.frames}")
        lines.append(f"  saturated words: {self.saturations}")
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------
# The fixed-point backend and the pipeline that runs it
# --------------------------------------------------------------------

class FixedArith(_Flags):
    """Fixed-point backend of the grouping chain (see grouping.FloatArith).

    Maps are raw words, held as integer-valued float64, in the configured
    intermediate format, carrying the working gain from P1 on.  Every MAC
    result and every stage result saturates into that format; the
    inherited tally counts the words that did.
    """

    def __init__(self, cfg: EngineConfig):
        super().__init__()
        self.fmt = FixedFormat(cfg.word_bits, cfg.fraction_bits, signed=True)
        self.gain_shift = working_gain_shift(self.fmt)

    def ingest(self, channel_map, oriented: bool):
        """P1: host-side scaling and 8-bit quantization of one channel."""
        if oriented:
            wire, gain = INGEST_ORIENTATION, ORIENTATION_GAIN
        else:
            wire, gain = INGEST_TEMPORAL, TEMPORAL_GAIN
        raw, sat = quantize(channel_map * gain, wire)
        self.add(sat)
        shift = wire.fraction_bits - self.fmt.fraction_bits - self.gain_shift
        return self.clip(round_shift(raw, shift))

    def finish(self, raw):
        return dequantize(raw, self.fmt)

    def share(self, raw, size: int):
        return row_stack(raw, size)

    def correlate(self, raw, kernel_raw):
        return fixed_correlate(raw, kernel_raw, self.fmt, self.fmt, self)

    def magnitude(self, even, odd):
        return complex_edge_fixed(even, odd)

    def modulate(self, edge, evidence):
        # Both operands carry the working gain; the product restores
        # single-gain scaling by shifting the extra factor out.
        return round_shift(edge * evidence, self.fmt.fraction_bits + self.gain_shift)

    def halve(self, raw, n: int):
        return np.floor(raw * 2.0 ** -n)

    def clip(self, raw):
        raw, sat = saturate(raw, self.fmt)
        self.add(sat)
        return raw


class HwPipeline(Pipeline):
    """Pipeline with the fixed-point backend (reduced modes only) and its kernel stacks
    quantized into ``KERNEL_FORMAT``; its ``profile`` ledger counts frames and
    saturated words as it runs."""

    def __init__(self, cfg: EngineConfig):
        self.profile = HwProfile(cfg)
        super().__init__(cfg)
        self.arith = FixedArith(cfg)
        self.banks = map_kernels(self.banks, lambda k: quantize(k, KERNEL_FORMAT)[0])

    def step(self, frame):
        """One frame through P1..P7 plus host normalization/fusion."""
        saliency = super().step(frame)
        self.profile.frames += 1
        self.profile.saturations = self.arith.saturations
        return saliency
