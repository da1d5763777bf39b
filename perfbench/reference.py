"""A clock that runs at a reference host's speed.

On a shared virtual machine the same code runs up to about 1.8 times
faster or slower from one minute to the next, and sometimes within a
run, as other tenants load the physical cores; process CPU time moves
with it, so it is no way out. A fixed pure-Python loop, timed at quiet
moments inside the measured window, tracks those phases: across eight
20 s ``grid_memory`` runs (2 vCPU Xeon at 2.1 GHz) the median round
latency spread 0.20 (IQR/median) raw and 0.03 once divided by the loop's
time in the same run.

:class:`ReferenceClock` keeps those loop timings and converts a wall-clock
interval into the time it would have taken on a host where the loop takes
:data:`NOMINAL_S`: each stretch of the interval is scaled by
``NOMINAL_S / loop time``, using the median of the loop timings nearest to
it. The loop touches no code of the package under test, so a change to
the package moves scaled durations exactly as it moves raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Tuple

#: Iterations of the reference loop (about 2.5 ms on the host above).
LOOP = 50_000
#: The loop's time on the reference host.
NOMINAL_S = 0.002
#: Loop timings whose median gives the speed at one point of the window.
NEIGHBOURS = 5


class ReferenceClock:
    """Reference-loop timings taken through a window, and the scaled
    length of any interval of it."""

    def __init__(self) -> None:
        #: (start, end) perf_counter instants of each timed loop.
        self.ticks: List[Tuple[float, float]] = []
        self._bounds: List[float] = []
        self._scales: List[float] = []

    def tick(self) -> None:
        """Time the reference loop once, now."""
        started = time.perf_counter()
        total = 0
        for value in range(LOOP):
            total += value
        self.ticks.append((started, time.perf_counter()))
        self._scales = []

    def median_s(self) -> float:
        return statistics.median(end - start for start, end in self.ticks)

    def _prepare(self) -> None:
        # Tick i sets the speed from the midpoint with tick i-1 to the
        # midpoint with tick i+1.
        durations = [end - start for start, end in self.ticks]
        half = NEIGHBOURS // 2
        self._scales = [
            NOMINAL_S / statistics.median(durations[max(0, i - half) : i + half + 1])
            for i in range(len(durations))
        ]
        self._bounds = [
            (self.ticks[i][1] + self.ticks[i + 1][0]) / 2 for i in range(len(self.ticks) - 1)
        ]

    def length(self, start: float, end: float) -> float:
        """The length of ``[start, end]`` on the reference host (s)."""
        if not self._scales:
            self._prepare()
        total = 0.0
        while start < end:
            index = bisect.bisect_right(self._bounds, start)
            stop = min(end, self._bounds[index]) if index < len(self._bounds) else end
            total += (stop - start) * self._scales[index]
            start = stop
        return total
