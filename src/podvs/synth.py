"""Built-in synthetic test videos.

Deterministic stimuli used by the behavioral tests and the `synth`
subcommand.  Every generator is seeded with a fixed constant, so the
emitted frames are bitwise stable across runs, and takes the frame size
and clip length from its caller: the engine's sizes are
``config.Resolution``'s, and ``suite`` states the behavioral clips' lengths.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FrameRGB
from .errors import DimensionError

ONSET_FRAME = 10

#: Smallest width and height the generators can draw: the distractors
#: of ``color_popout_video`` are placed in [2, side - 5).
MIN_SIDE = 8


@dataclass(frozen=True)
class SquareSpec:
    """Axis-aligned square in pixel coordinates (x0/y0 inclusive)."""

    x0: int
    y0: int
    size: int

    @property
    def x1(self) -> int:
        return self.x0 + self.size

    @property
    def y1(self) -> int:
        return self.y0 + self.size


def _square(width: int, height: int, x0: int, y0: int, size: int) -> SquareSpec:
    """The square at (x0, y0) inside the frame, its size clamped so that it
    ends at the frame's edge at the latest: the square is what gets painted."""
    return SquareSpec(x0, y0, min(size, width - x0, height - y0))


def _paint(frame_gray: np.ndarray, square: SquareSpec, value: int) -> None:
    frame_gray[square.y0 : square.y1, square.x0 : square.x1] = value


def _check_size(width: int, height: int) -> None:
    if min(width, height) < MIN_SIDE:
        raise DimensionError(f"synthetic videos need at least {MIN_SIDE}x{MIN_SIDE} px, "
                             f"got {width}x{height}")


def onset_square_video(width: int, height: int, frames: int):
    """Gray scene with static dot distractors; a white square appears.

    The square turns on at ONSET_FRAME and stays.  Returns
    (frames, square).
    """
    _check_size(width, height)
    rng = np.random.default_rng(1201)
    bg = np.full((height, width), 96, dtype=np.uint8)
    # sparse static distractor dots, kept away from the square's area
    square = _square(width, height, int(width * 0.60), int(height * 0.55), max(8, height // 5))
    for _ in range(40):
        x = int(rng.integers(2, width - 4))
        y = int(rng.integers(2, height - 4))
        if square.x0 - 6 <= x <= square.x1 + 6 and square.y0 - 6 <= y <= square.y1 + 6:
            continue
        bg[y : y + 2, x : x + 2] = int(rng.integers(60, 140))
    out = []
    for n in range(frames):
        gray = bg.copy()
        if n >= ONSET_FRAME:
            _paint(gray, square, 255)
        out.append(FrameRGB.from_gray(gray))
    return out, square


def static_square_video(width: int, height: int, frames: int):
    """Single bright square on a dark background, present throughout."""
    _check_size(width, height)
    square = _square(width, height, int(width * 0.30), int(height * 0.30), max(10, height // 4))
    bg = np.full((height, width), 24, dtype=np.uint8)
    out = []
    for _ in range(frames):
        gray = bg.copy()
        _paint(gray, square, 220)
        out.append(FrameRGB.from_gray(gray))
    return out, square


def drifting_bar_video(width: int, height: int, frames: int):
    """A bright vertical bar drifting rightward over a textured field."""
    _check_size(width, height)
    rng = np.random.default_rng(7777)
    texture = rng.integers(64, 128, size=(height, width), dtype=np.uint8)
    out = []
    bar_w = max(4, width // 16)
    for n in range(frames):
        gray = texture.copy()
        x0 = (8 + 2 * n) % (width - bar_w)
        gray[height // 6 : height - height // 6, x0 : x0 + bar_w] = 240
        out.append(FrameRGB.from_gray(gray))
    return out


def color_popout_video(width: int, height: int, frames: int):
    """A red patch among gray distractors; drives the opponency channels."""
    _check_size(width, height)
    rng = np.random.default_rng(4242)
    r = np.full((height, width), 90, dtype=np.uint8)
    g = r.copy()
    b = r.copy()
    for _ in range(30):
        x = int(rng.integers(2, width - 5))
        y = int(rng.integers(2, height - 5))
        v = int(rng.integers(70, 120))
        for plane in (r, g, b):
            plane[y : y + 3, x : x + 3] = v
    patch = _square(width, height, int(width * 0.55), int(height * 0.35), max(8, height // 6))
    r[patch.y0 : patch.y1, patch.x0 : patch.x1] = 220
    g[patch.y0 : patch.y1, patch.x0 : patch.x1] = 40
    b[patch.y0 : patch.y1, patch.x0 : patch.x1] = 40
    frame = FrameRGB.from_planes(r, g, b)
    return [frame] * frames, patch


def suite(width: int, height: int) -> dict:
    """The behavioral stimuli (pop-out assertions target these)."""
    return {
        "onset_square": onset_square_video(width, height, 24)[0],
        "static_square": static_square_video(width, height, 12)[0],
        "drifting_bar": drifting_bar_video(width, height, 24),
        "color_popout": color_popout_video(width, height, 12)[0],
    }


def _texture(width: int, height: int) -> np.ndarray:
    rng = np.random.default_rng(97)
    return rng.integers(40, 80, size=(height, width)).astype(np.uint8)


def fidelity_suite(width: int, height: int) -> dict:
    """Frozen stimuli for fixed-versus-float fidelity scoring.

    The masked-mean NSS of two near-identical maps equals the mean of
    the reference map over its own above-threshold set, which for an
    isolated compact blob saturates around 0.82 no matter how faithful
    the arithmetic is.  These scenes (thin ridges, small dots, textured
    fields) produce maps whose above-threshold set hugs the peak, so
    the score has headroom and degrades only when the fixed-point path
    actually diverges.
    """
    _check_size(width, height)
    tex = _texture(width, height)
    videos = {}

    gray = tex.copy()
    gray[height // 2 : height // 2 + 2, width // 2 : width // 2 + 2] = 255
    videos["bright_dot"] = [FrameRGB.from_gray(gray)] * 4

    gray = tex.copy()
    y0 = max(0, height // 2 - 6)
    gray[y0 : y0 + 2, width // 2 : width // 2 + 2] = 255
    gray[2 * height // 3 : 2 * height // 3 + 2, width // 4 : width // 4 + 2] = 230
    videos["two_dots"] = [FrameRGB.from_gray(gray)] * 4

    gray = tex.copy()
    bar_w = max(5, width // 18)
    gray[:, int(width * 0.30) : int(width * 0.30) + bar_w] = 235
    videos["vertical_bar"] = [FrameRGB.from_gray(gray)] * 4

    gray = np.full((height, width), 40, dtype=np.uint8)
    gray[height // 3 : height // 3 + max(6, height // 10), :] = 230
    videos["band"] = [FrameRGB.from_gray(gray)] * 4

    r = np.full((height, width), 80, dtype=np.uint8)
    g = r.copy()
    b = r.copy()
    x0 = int(width * 0.6)
    bw = max(6, width // 16)
    r[:, x0 : x0 + bw] = 235
    g[:, x0 : x0 + bw] = 30
    b[:, x0 : x0 + bw] = 30
    videos["red_bar"] = [FrameRGB.from_planes(r, g, b)] * 4

    frames = []
    x0 = int(width * 0.45)
    for n in range(8):
        gray = tex.copy()
        if n >= 3:
            gray[:, x0 : x0 + 5] = 240
        frames.append(FrameRGB.from_gray(gray))
    videos["onset_bar"] = frames

    return videos


def all_videos(width: int, height: int) -> dict:
    """Every built-in stimulus, behavioral and fidelity."""
    videos = dict(suite(width, height))
    videos.update(fidelity_suite(width, height))
    return videos
