import numpy as np
import pytest

from podvs.config import EngineConfig, FrameRGB, Resolution


@pytest.fixture
def hw80_cfg():
    return EngineConfig(resolution=Resolution.HW_80)


@pytest.fixture
def hw112_cfg():
    return EngineConfig(resolution=Resolution.HW_112)


def gray_frame(width, height, value):
    return FrameRGB.from_gray(np.full((height, width), value, dtype=np.uint8))


def random_frame(width, height, rng):
    return FrameRGB.from_planes(
        rng.integers(0, 256, size=(height, width), dtype=np.uint8),
        rng.integers(0, 256, size=(height, width), dtype=np.uint8),
        rng.integers(0, 256, size=(height, width), dtype=np.uint8),
    )


def gather_bilinear(src, out_h, out_w):
    """Pixel-center-aligned bilinear resample as an explicit gather of
    the four neighbours: the x-interpolated top and bottom rows, then y."""
    src = np.asarray(src, dtype=np.float64)
    in_h, in_w = src.shape
    ys = np.clip((np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5, 0.0, in_h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5, 0.0, in_w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = src[np.ix_(y0, x0)] * (1 - wx) + src[np.ix_(y0, x1)] * wx
    bot = src[np.ix_(y1, x0)] * (1 - wx) + src[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bot * wy
