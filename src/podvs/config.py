"""Shared data model and configuration.

Field maps are plain 2-D float64 numpy arrays (row-major, origin at the
top-left, y grows downward).  Everything here is immutable after
construction and safe to share across threads.
"""
from __future__ import annotations

import collections
import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import ConfigError, DimensionError, FormatError

#: Number of temporal taps: the current frame plus five previous ones.
TAP_COUNT = 6

#: Widths of the hardware model's MAC accumulator and of its signed kernel
#: coefficients (``hwmodel.KERNEL_FORMAT``); they bound ``word_bits``.
ACCUMULATOR_BITS = 48
COEFFICIENT_BITS = 18


class Resolution(Enum):
    """Input resolution mode: frame size, grouping kernel size and ``mode``
    name.  Its pyramid levels are ``pyramid``'s (``REFERENCE_DEPTH``,
    ``HW_LEVELS``); the modes the board runs are ``hwmodel.ANCHORS``."""

    REFERENCE = (640, 480, 11, "reference")
    HW_112 = (112, 84, 5, "hw112")
    HW_80 = (80, 60, 5, "hw80")

    @property
    def width(self) -> int:
        return self.value[0]

    @property
    def height(self) -> int:
        return self.value[1]

    @property
    def kernel_size(self) -> int:
        return self.value[2]

    @property
    def mode(self) -> str:
        return self.value[3]

    @classmethod
    def from_string(cls, text: str) -> "Resolution":
        table = {str(m): m for m in cls}
        key = text.strip().lower()
        if key not in table:
            raise ConfigError(
                f"resolution must be one of {sorted(table)}, got {text!r}"
            )
        return table[key]

    def __str__(self) -> str:
        return f"{self.width}x{self.height}"


@dataclass(frozen=True)
class EngineConfig:
    """Validated engine parameters.

    Unset keys take the defaults below; the frame and kernel sizes always
    follow the resolution mode, and ``word_bits`` is at most what the
    hardware model's MAC accumulator holds (26 at 5x5 kernels, 24 at 11x11).
    The paper's fixed parameters are constants, not keys: unit inhibition
    in P7 and N(.)'s peak rule, ``normalize.MAXIMA_RADIUS`` and ``MAXIMA_THRESHOLD``.
    """

    resolution: Resolution = Resolution.REFERENCE
    frame_rate: float = 24.0
    word_bits: int = 18                 # fixed-point intermediate width
    fraction_bits: int = 8              # fixed-point fraction bits

    def __post_init__(self):
        if not 0 < self.frame_rate < np.inf:
            raise ConfigError(f"frame_rate must be positive and finite, got {self.frame_rate}")
        if self.fraction_bits < 0:
            raise ConfigError(f"fraction_bits must be >= 0, got {self.fraction_bits}")
        if self.word_bits < self.fraction_bits or self.word_bits < 2:
            raise ConfigError("word_bits must be >= fraction_bits and >= 2")
        # A k x k sum of word x coefficient products fits the accumulator;
        # below 2**48 float64 holds it exactly, so the fixed-point model is exact.
        k = self.kernel_size
        acc_bits = self.word_bits + COEFFICIENT_BITS - 1 + math.ceil(math.log2(k * k))
        if acc_bits > ACCUMULATOR_BITS:
            raise ConfigError(f"word_bits={self.word_bits} overflows the {ACCUMULATOR_BITS}-bit "
                              f"MAC accumulator at {k}x{k} kernels ({acc_bits} bits)")

    @property
    def width(self) -> int:
        return self.resolution.width

    @property
    def height(self) -> int:
        return self.resolution.height

    @property
    def kernel_size(self) -> int:
        return self.resolution.kernel_size

    @property
    def frame_period_ms(self) -> float:
        return 1000.0 / self.frame_rate


#: Text-to-value converter per config key: the type of the field's default.
_PARSERS = {
    f.name: Resolution.from_string if f.name == "resolution" else type(f.default)
    for f in fields(EngineConfig)
}


def load_settings(path) -> dict:
    """A config file's key=value lines as {key: value}, each value of its
    field's type.  Blank lines and lines starting with '#' are ignored;
    unknown keys are errors.  The values are not yet checked together, so
    that a caller can set the resolution before ``EngineConfig`` checks
    the word width; an empty file yields the defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](val.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return values


@dataclass(frozen=True)
class FrameRGB:
    """One 8-bit RGB video frame, stored as three (height, width) planes.

    The planes are read-only uint8 copies of the arrays passed in, so a
    caller that reuses its buffers changes no frame already made, and the
    caller's arrays stay writable.  Planes of other types must be of a
    boolean, integer or float type and hold only integers in 0..255, or
    ``FormatError`` is raised: no sample wraps.
    """

    r: np.ndarray
    g: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in "rgb":
            plane = np.asarray(getattr(self, name))
            if plane.ndim != 2:
                raise DimensionError(f"{name} plane has shape {plane.shape}, not (height, width)")
            if plane.dtype.kind not in "biuf":
                raise FormatError(f"{name} plane holds {plane.dtype} samples, not 8-bit ones")
            if plane.dtype != np.uint8:
                bad = plane[(plane < 0) | (plane > 255) | (plane != np.trunc(plane))]
                if bad.size:
                    raise FormatError(f"{name} plane holds {bad[0].item()!r}, not an 8-bit sample")
            plane = np.array(plane, dtype=np.uint8, order="C")
            plane.setflags(write=False)
            object.__setattr__(self, name, plane)
        shapes = {self.r.shape, self.g.shape, self.b.shape}
        if len(shapes) != 1:
            raise DimensionError(f"color planes disagree: {sorted(shapes)}")
        h, w = self.r.shape
        if h <= 0 or w <= 0:
            raise DimensionError(f"degenerate frame {w}x{h}")

    @property
    def width(self) -> int:
        return self.r.shape[1]

    @property
    def height(self) -> int:
        return self.r.shape[0]

    @classmethod
    def from_planes(cls, r, g, b) -> "FrameRGB":
        return cls(r, g, b)

    @classmethod
    def from_gray(cls, gray) -> "FrameRGB":
        return cls(gray, gray, gray)


def validate_frame(frame: FrameRGB, cfg: EngineConfig) -> None:
    """Accept a frame iff its dimensions match the configured resolution."""
    if (frame.width, frame.height) != (cfg.width, cfg.height):
        raise DimensionError(
            f"frame is {frame.width}x{frame.height}, "
            f"config expects {cfg.width}x{cfg.height}"
        )


class FrameHistory:
    """Ring of the current frame plus up to TAP_COUNT-1 previous frames.

    Entry 0 is the current frame, entry t the frame t steps in the past.
    Before the ring fills, missing history is padded with clones of the
    earliest available frame so that video starts produce no spurious
    onset transient.
    """

    def __init__(self):
        self._ring: collections.deque[FrameRGB] = collections.deque(maxlen=TAP_COUNT)

    def push(self, frame: FrameRGB) -> None:
        if self._ring and self._ring[0].r.shape != frame.r.shape:
            raise DimensionError("frame dimensions changed mid-sequence")
        self._ring.appendleft(frame)

    def frame_at(self, t: int) -> FrameRGB:
        """Frame t steps in the past, clamped to the oldest available."""
        if not self._ring:
            raise DimensionError("history is empty")
        return self._ring[min(t, len(self._ring) - 1)]

    def plane_stack(self, plane: str) -> np.ndarray:
        """(TAP_COUNT, H, W) float64 stack of one color plane, newest first."""
        shape = getattr(self.frame_at(0), plane).shape
        return self.fill_plane_stack(plane, np.empty((TAP_COUNT, *shape)))

    def fill_plane_stack(self, plane: str, out: np.ndarray) -> np.ndarray:
        """One color plane's frames, newest first, written into ``out``, a
        (TAP_COUNT, H, W) float64 array, which is returned."""
        for t, layer in enumerate(out):
            layer[...] = getattr(self.frame_at(t), plane)
        return out


@dataclass(frozen=True)
class FixationRecord:
    """One eye-fixation sample: where one subject looked at one frame."""

    video: str
    frame: int
    subject: str
    x: int
    y: int

    def __post_init__(self):
        if self.frame < 0:
            raise ConfigError(f"negative frame index {self.frame}")
        if self.x < 0 or self.y < 0:
            raise ConfigError(f"negative fixation coordinate ({self.x}, {self.y})")
