"""A fixed calibration loop that reads the host's current speed.

A shared host's speed swings by up to half over seconds to minutes,
for reasons the guest cannot see (its CPU time grows with its wall
time).  The benchmark runs :func:`calibrate` just before every timed
slice of simulation, so each slice has a reading of the speed it ran
at, and ``run.py`` scales its host times to the speed at which one
call takes :data:`NOMINAL_S`.

The loop mixes the simulator's own kinds of work: generator resumes,
method calls on small objects, a heap and a dict.  It must never
change, or figures before and after the change stop being comparable.
"""

from __future__ import annotations

import heapq

#: steps per call
STEPS = 1500
#: host seconds of one call at the reference speed (the fastest
#: phase of a 2-vCPU shared Linux VM, Intel Xeon, Python 3.11.7)
NOMINAL_S = 0.00125


class _Counter:
    __slots__ = ("counts",)

    def __init__(self):
        self.counts = {}

    def add(self, key: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1


def _stream(k: int):
    x = 0
    while True:
        x = (x * 1103515245 + k) & 0xFFFF
        yield x


def calibrate() -> int:
    """One call's worth of fixed work; returns a checksum."""
    streams = [_stream(k) for k in range(16)]
    heap = []
    counter = _Counter()
    for i in range(STEPS):
        value = next(streams[i & 15])
        heapq.heappush(heap, (value, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        counter.add(value & 255)
    return len(counter.counts) + heap[0][0]
