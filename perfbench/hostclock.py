"""Host-speed calibration and drift normalization.

On a shared VM the host itself speeds up and slows down: the same
simulator op, repeated in separate processes, has medians that differ
by 10-20 % while ``process_time`` drifts just as much, so the cause is
host speed, not preemption. Within one process the speed also switches
between a fast and a slow state every few hundred milliseconds. Every
host-time metric of the benchmark is therefore reported in
*reference-host seconds*::

    normalized = raw × REFERENCE_CALIB_S ÷ mean(nearby calibration times)

A calibration is one run of :func:`calibration_work`, a fixed loop of
the kinds of work the measured layers do: pure-Python dict work,
object and heap work like the simulator's event loop, and a small numpy
loop. The benchmark calibrates right before every op and normalizes
each pass by the mean calibration time of that pass: the mean, because
a median flips between the two speed states; of that pass, because the
mix of states drifts over a run.

This module is pure: it imports no part of the program under test, and
the clock and the calibration work are injectable so tests can slow
both down by the same factor with a fake clock.
"""

import heapq
import math
import statistics
import time
from typing import Callable, List, Sequence

import numpy as np

#: Typical :func:`calibration_work` time on the reference host (a 2-core
#: x86-64 VM, Python 3.11, numpy 2.x). A metric in reference-host
#: seconds reads as what the reference host would have measured.
REFERENCE_CALIB_S = 0.015

class _Entry:
    __slots__ = ("time", "count")

    def __init__(self, time: float, count: int):
        self.time = time
        self.count = count

    def due(self) -> float:
        return self.time + self.count * 0.5


def calibration_work() -> float:
    """The fixed calibration loop (about 15 ms on the reference host)."""
    table: dict = {}
    for i in range(40_000):
        key = i % 257
        table[key] = table.get(key, 0) + i
    heap: list = []
    for i in range(5_500):
        entry = _Entry(float(i % 97), i)
        heapq.heappush(heap, (entry.due(), i, entry))
        if len(heap) > 64:
            heapq.heappop(heap)
    vec = np.ones(64)
    for _ in range(2_800):
        vec = vec * 0.5 + 1.0
    return len(table) + len(heap) + float(vec[0])


class HostClock:
    """A wall clock that also samples host speed.

    Args:
        clock: Seconds counter (default :func:`time.perf_counter`).
        work: The calibration loop (default :func:`calibration_work`).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        work: Callable[[], object] = calibration_work,
    ):
        self.clock = clock
        self.work = work
        self.calib_s: List[float] = []

    def calibrate(self) -> float:
        """Run the calibration loop once and record its time."""
        start = self.clock()
        self.work()
        elapsed = self.clock() - start
        self.calib_s.append(elapsed)
        return elapsed

    def median_calib_s(self) -> float:
        if not self.calib_s:
            raise RuntimeError("no calibration has run")
        return statistics.median(self.calib_s)


def scale(calib_s: Sequence[float]) -> float:
    """Raw seconds → reference-host seconds, from the calibrations
    taken around the measured work."""
    return REFERENCE_CALIB_S / statistics.fmean(calib_s)


def normalize(raw_s: float, calib_s: Sequence[float]) -> float:
    """``raw_s`` in reference-host seconds."""
    return raw_s * scale(calib_s)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile of ``values``."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)

