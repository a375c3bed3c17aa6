"""Checks and scores the benchmark applies to the engine's output maps."""
from __future__ import annotations

import hashlib
import statistics

import numpy as np


def map_ok(map_, height: int, width: int) -> bool:
    """The output check: right shape, finite, every value in [0, 1]."""
    if not isinstance(map_, np.ndarray) or map_.shape != (height, width):
        return False
    return bool(np.all(np.isfinite(map_)) and map_.min() >= 0.0 and map_.max() <= 1.0)


def argmax_xy(map_: np.ndarray):
    """(x, y) of the first maximum in row-major order."""
    y, x = np.unravel_index(int(np.argmax(map_)), map_.shape)
    return int(x), int(y)


def popout_hits(maps, targets):
    """(hits, frames with a target): argmax inside the target box.

    A frame whose map is missing (the step raised or the map failed the
    check) counts as a miss.
    """
    hits = total = 0
    for map_, box in zip(maps, targets):
        if box is None:
            continue
        total += 1
        if map_ is not None and box.contains(*argmax_xy(map_)):
            hits += 1
    return hits, total


def pcc(a: np.ndarray, b: np.ndarray):
    """Pearson correlation of two maps; None when either is constant."""
    da = np.asarray(a, dtype=np.float64) - np.mean(a)
    db = np.asarray(b, dtype=np.float64) - np.mean(b)
    denom = float(np.sqrt(np.sum(da * da) * np.sum(db * db)))
    return float(np.sum(da * db)) / denom if denom > 0.0 else None


class MapDigest:
    """SHA-256 over a sequence of maps: shape, then little-endian float64."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, map_) -> None:
        if map_ is None:
            self._hash.update(b"missing")
            return
        arr = np.ascontiguousarray(map_, dtype="<f8")
        self._hash.update(repr(arr.shape).encode())
        self._hash.update(arr.tobytes())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def summary(values) -> dict:
    """Median, first and third quartile, and their spread over the median."""
    values = sorted(values)
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else float("inf"),
        "n": len(values),
    }
