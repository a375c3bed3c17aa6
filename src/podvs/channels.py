"""Decomposition of the filtered input into the nine feature sub-channels.

One intensity channel (strongly phasic temporal response of the
grayscale), four color-opponency channels (computed from the weakly
phasic temporal response of the RGB planes), and four orientation
channels that all receive the unfiltered grayscale of the current frame.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .config import FrameHistory, FrameRGB
from .temporal import TemporalKernel, apply_temporal


class ChannelId(Enum):
    INTENSITY = "intensity"
    RG = "rg"
    GR = "gr"
    BY = "by"
    YB = "yb"
    O_0 = "o0"
    O_45 = "o45"
    O_90 = "o90"
    O_135 = "o135"


#: The four orientation channels share one gray input and hence one
#: grouped map, and ``normalize.fuse`` adds its conspicuity map once per
#: channel: orientation weighs 4 in the fused sum, against 1 for
#: intensity and 1 for each color-opponency map.  Whether that matches
#: Russell et al. (2014), which this model follows, is not verified here.
ORIENTATION_CHANNELS = (ChannelId.O_0, ChannelId.O_45, ChannelId.O_90, ChannelId.O_135)


def to_intensity(frame: FrameRGB) -> np.ndarray:
    """Grayscale as the plain average of the three color planes."""
    return (
        frame.r.astype(np.float64)
        + frame.g.astype(np.float64)
        + frame.b.astype(np.float64)
    ) / 3.0


def _rect(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def color_opponency(r: np.ndarray, g: np.ndarray, b: np.ndarray) -> dict:
    """Four opponency maps from (temporally filtered) RGB planes.

    Hue is decoupled from intensity first (half-wave rectified R, G, B,
    Y components), then opposing components are differenced and
    rectified again, so every output is non-negative and RG * GR == 0
    pointwise.
    """
    comp_r = _rect(r - (g + b) / 2.0)
    comp_g = _rect(g - (r + b) / 2.0)
    comp_b = _rect(b - (r + g) / 2.0)
    comp_y = _rect((r + g) / 2.0 - np.abs(r - g) / 2.0 - b)
    return {
        ChannelId.RG: _rect(comp_r - comp_g),
        ChannelId.GR: _rect(comp_g - comp_r),
        ChannelId.BY: _rect(comp_b - comp_y),
        ChannelId.YB: _rect(comp_y - comp_b),
    }


def extract_all(
    history: FrameHistory,
    strong: TemporalKernel,
    weak: TemporalKernel,
) -> dict:
    """All nine labeled channel maps for the current history state.

    The intensity output is passed on signed (the biphasic kernel may
    drive it negative); rectification happens only inside the opponency
    formulas.  The orientation channels receive the current frame's
    grayscale with no temporal filtering, so static structure is
    preserved; the four orientation entries share one array instance.

    One float plane stack is alive at a time.  It holds in turn the r, g
    and b frames for their weak temporal responses, then the gray frames,
    each written as ((r + g) + b) / 3.0, the arithmetic of
    ``to_intensity`` in the same order, for the strong one.  The newest
    gray frame is copied for the orientation channels and the stack is
    freed before the opponency maps are made.
    """
    stack = history.plane_stack("r")
    planes = [apply_temporal(weak, stack)]
    for name in ("g", "b"):
        planes.append(apply_temporal(weak, history.fill_plane_stack(name, stack)))
    for t, layer in enumerate(stack):
        frame = history.frame_at(t)
        np.add(frame.r, frame.g, out=layer, dtype=np.float64)
        layer += frame.b
    stack /= 3.0
    channels = {ChannelId.INTENSITY: apply_temporal(strong, stack)}
    gray = stack[0].copy()
    del stack, layer  # the stack, freed before the opponency temporaries
    channels.update(color_opponency(*planes))
    channels.update(dict.fromkeys(ORIENTATION_CHANNELS, gray))
    return channels
