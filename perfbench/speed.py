"""Host-speed reference: rescale measured times to a fixed CPU speed.

On a shared host the CPU speed this process gets swings by tens of percent
from one second to the next, and whole runs can be up to 2x slower than their
neighbours; the slowdown is in CPU time, not in waiting.  So the benchmark
times a small fixed pure-Python loop, which calls nothing in dlc, between
measured intervals and rescales each interval's time by it:

    t_reference = t * REFERENCE_S / loop_time

where ``loop_time`` is the mean of the loop timings taken just before and
just after the interval.  REFERENCE_S is the loop's time at a quiet moment
on the 2-core box the bounds were set on (CPython 3.11), so rescaled times
read close to wall-clock times there.  A change to dlc moves the rescaled
time; a change in host load mostly does not.
"""

from __future__ import annotations

import gc
import time

REFERENCE_S = 0.0045


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key, kids):
        self.key = key
        self.kids = kids


def _tree(n: int) -> _Node:
    if n <= 1:
        return _Node(n, None)
    return _Node(n, (_tree(n - 1), _tree(n - 2)))


def loop_seconds() -> float:
    """Time one run of the reference loop, with the cycle collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict = {}
        for i in range(300):
            key = (i % 37, _tree(8).key)
            counts[key] = counts.get(key, 0) + 1
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Scaler:
    """Probes the reference loop between intervals; see the module doc."""

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.probes = [loop_seconds()]
        self.marks: list = []  # per interval: index of the probe before it
        self.since = 0.0

    def measured(self, seconds: float) -> None:
        """Record one interval; probe again once `every_s` has gone by."""
        self.marks.append(len(self.probes) - 1)
        self.since += seconds
        if self.since >= self.every_s:
            self.probes.append(loop_seconds())
            self.since = 0.0

    def factors(self) -> list:
        """Close with a last probe; the rescaling factor of each interval."""
        if len(self.probes) - 1 == self.marks[-1]:
            self.probes.append(loop_seconds())
        p = self.probes
        return [2.0 * REFERENCE_S / (p[k] + p[k + 1]) for k in self.marks]
