"""Phasic temporal filters and their application across the frame history.

Two biphasic filter profiles are used: a strongly phasic one (high
temporal sensitivity, drives the intensity channel) and a weakly phasic
one (sluggish, color-preserving, drives the color channels).  Both come
from the same closed form

    r(t) = alpha * (t - tau - delta) * exp(beta * (t - tau)**2)

discretized at the frame period.  The filter support dies out within
250 ms, so with six taps at 24 Hz no relevant history is lost.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TAP_COUNT
from .errors import ConfigError, DimensionError


@dataclass(frozen=True)
class PhasicParams:
    """Coefficients of the biphasic temporal response profile."""

    alpha: float
    beta: float
    tau: float    # time shift, ms
    delta: float  # phasic-degree parameter, ms

    def __post_init__(self):
        if self.beta >= 0:
            raise ConfigError("beta must be negative so the envelope decays")

    def response(self, t_ms) -> np.ndarray:
        """Evaluate r(t) in double precision at time(s) in ms."""
        t = np.asarray(t_ms, dtype=np.float64)
        return self.alpha * (t - self.tau - self.delta) * np.exp(
            self.beta * (t - self.tau) ** 2
        )


#: Fits to strongly phasic (magnocellular) V1 simple-cell recordings.
STRONGLY_PHASIC = PhasicParams(alpha=-0.00161, beta=-0.00111, tau=86.2, delta=5.6)

#: Fits to weakly phasic (parvocellular) V1 simple-cell recordings.
WEAKLY_PHASIC = PhasicParams(alpha=-0.000487, beta=-0.000466, tau=116.0, delta=20.0)


@dataclass(frozen=True)
class TemporalKernel:
    """Discretized filter taps; taps[k] weighs the frame k steps in the past."""

    taps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "taps", np.asarray(self.taps, dtype=np.float64))
        self.taps.setflags(write=False)
        if not np.all(np.isfinite(self.taps)):
            raise ConfigError("kernel taps must be finite")

    def __len__(self) -> int:
        return len(self.taps)


def make_kernel(params: PhasicParams, frame_period_ms: float) -> TemporalKernel:
    """Sample r(t) at t = k * frame_period for k = 0 .. TAP_COUNT-1.

    Tap 0 sits at t = 0 (the current frame); no DC normalization is
    applied, so a sustained stimulus keeps a nonzero steady response.
    """
    if frame_period_ms <= 0:
        raise ConfigError("frame period must be positive")
    t = np.arange(TAP_COUNT, dtype=np.float64) * frame_period_ms
    return TemporalKernel(params.response(t))


def phasic_degree_index(params: PhasicParams) -> float:
    """Rebound-to-onset amplitude ratio of the filter profile.

    Samples r(t) every 0.1 ms over [0, 250] ms and returns the
    magnitude of the inhibitory (negative) peak divided by the
    excitatory (positive) peak.  Larger values mean a stronger rebound,
    i.e. a more strongly phasic filter.
    """
    t = np.arange(0.0, 250.0 + 0.1 / 2, 0.1)  # the half step keeps 250 ms in range
    v = params.response(t)
    peak_pos = float(v.max())
    peak_neg = float(v.min())
    if peak_pos <= 0 or peak_neg >= 0:
        raise ConfigError("profile is not biphasic over the sampled range")
    return abs(peak_neg) / peak_pos


def apply_temporal(kernel: TemporalKernel, stack: np.ndarray) -> np.ndarray:
    """Temporal convolution of a (taps, H, W) history stack.

    out[r, c] = sum_t stack[t, r, c] * taps[t], each pixel independent.
    The stack must be ordered newest first, matching FrameHistory.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise DimensionError(f"expected a (taps, H, W) stack, got shape {stack.shape}")
    if stack.shape[0] != len(kernel):
        raise DimensionError(
            f"stack has {stack.shape[0]} frames, kernel has {len(kernel)} taps"
        )
    return np.tensordot(kernel.taps, stack, axes=(0, 0))
