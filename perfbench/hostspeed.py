"""Host-speed probe: how much slower than usual the machine runs right now.

On a shared host, other tenants slow this process down by up to about
1.8x, in phases that last from seconds to minutes, in wall and CPU time
alike; no repeat count inside a run averages a slow minute away.  A
small fixed kernel (dict updates, heap operations and small numpy
operations, the mix the solver itself spends its time in) runs between
instances, about every `EVERY_S` seconds.  A stretch of timed work is
divided by the host slowdown over it: the mean duration of the probes
that bracket the stretch, over `PROBE_REF_S`.  The result is seconds at
the reference speed, which on an otherwise idle host equals the raw time.

The kernel calls nothing from planarclust, so a change to the library
moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import heapq
import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

# Duration of one probe at full speed: the 5th percentile of 400 probes on
# a 2-vCPU Intel Xeon shared host (Python 3, numpy, one BLAS thread).
PROBE_REF_S = 0.0144
EVERY_S = 0.2  # probe after the instance that ends this long after the last probe


def _kernel() -> float:
    d: dict = {}
    for k in range(30000):
        d[k % 997] = d.get(k % 997, 0) + k
    h: list = []
    for k in range(8000):
        heapq.heappush(h, (k * 7919) % 10007)
    while h:
        heapq.heappop(h)
    x = np.arange(64.0)
    acc = 0.0
    for _ in range(2500):
        x = x * 0.5 + 1.0
        acc += float(x.sum())
    return acc


class HostSpeed:
    """Probe timestamps and durations of one run."""

    def __init__(self, every: float = EVERY_S):
        self.every = every
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []
        _kernel()  # first call pays for numpy's lazy set-up

    def probe(self) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def tick(self) -> None:
        """Probe if the last probe ended at least `every` seconds ago."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= self.every:
            self.probe()

    def slowdown(self, t0: float, t1: float) -> float:
        """Host slowdown over [t0, t1], from the probes that bracket it.

        Uses the last probe that ended by t0, the first that started at or
        after t1, and any in between; 1.0 when there is none.
        """
        first = max(bisect_right(self.ends, t0) - 1, 0)
        last = bisect_left(self.starts, t1)
        picks = self.durations[first:last + 1]
        return statistics.fmean(picks) / PROBE_REF_S if picks else 1.0

    def median_slowdown(self) -> float:
        return statistics.median(self.durations) / PROBE_REF_S if self.durations else 1.0
