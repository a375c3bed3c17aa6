"""Host speed, from a fixed reference kernel timed next to the work.

The benchmark runs on shared machines whose speed changes under it. On
the 2-core VM it was built on, one 80x60 clip took between 0.074 and
0.135 s a frame within 100 s, and whole runs were up to 1.8 times slower
for minutes at a time; process CPU time equalled wall time and the guest
reported no steal, so the slowdown came from outside the VM. Tracking it
takes a yardstick that does not change with the program: a kernel of
the same kind of work (zero-padded correlation with 5x5 and 11x11
kernels, gathered resampling, elementwise maths) on fixed data.

Timing a block of units just before and just after a piece of work
gives the host's seconds per unit around it; dividing by
REFERENCE_UNIT_S gives its slowdown. A time divided by that slowdown is
in reference-host seconds. This tracks the host well for work made of
short pieces (clips of a few seconds); a single piece much longer than
the host's swings integrates them itself, and two samples around it
only add noise.
"""
from __future__ import annotations

import time

import numpy as np
from scipy import ndimage

#: Seconds per unit on the build host, fastest blocks observed: the
#: scale of reference-host seconds. Any constant keeps ratios between
#: runs; this one makes them read close to uncontended wall time.
REFERENCE_UNIT_S = 0.002


class HostSpeed:
    """Times blocks of the reference kernel."""

    def __init__(self):
        rng = np.random.default_rng(2002)
        self._small = rng.random((84, 112))
        self._large = rng.random((240, 320))
        self._k5 = rng.random((5, 5)) - 0.5
        self._k11 = rng.random((11, 11)) - 0.5
        self._rows = np.linspace(0, 239, 170).astype(np.int64)
        self._cols = np.linspace(0, 319, 226).astype(np.int64)

    def unit(self) -> float:
        a = ndimage.correlate(self._small, self._k5, mode="constant", cval=0.0)
        b = ndimage.correlate(self._large[:120, :160], self._k11, mode="constant", cval=0.0)
        c = self._large[np.ix_(self._rows, self._cols)] * 0.5
        return float(np.sqrt(a * a + 1.0).sum() + np.maximum(b, 0.0).sum() + c.sum())

    def seconds_per_unit(self, units: int) -> float:
        """Mean seconds per unit over a block of units."""
        start = time.perf_counter()
        for _ in range(units):
            self.unit()
        return (time.perf_counter() - start) / units


def slowdown(before: float, after: float) -> float:
    """Host slowdown over a piece of work bracketed by two blocks."""
    return (before + after) / 2.0 / REFERENCE_UNIT_S
