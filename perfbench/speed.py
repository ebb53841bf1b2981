"""The machine's speed over a run, sampled next to the program under test.

The benchmark's machine is a few cores of a shared host.  Other tenants
slow it by up to about 1.8x, for seconds to minutes at a time, so the
same repetition can take 2.4 s in one run and 3.4 s in the next, and the
fastest repetition of a run cannot undo a slow spell that covers the
whole run.  A `SpeedProbe` thread in the parent process runs a small
fixed kernel every INTERVAL_S while the workers run, each time on the
next core in turn, and records the kernel's CPU time with a monotonic
timestamp.  The kernel is a Python integer loop and a pass over an array
larger than the L2 cache, the two kinds of work the program does.  Its
CPU time follows the host's speed and leaves out waits for a core; the
probe costs a worker about 4% of one core, the same in every run.

`factor(start, end)` is REF_KERNEL_S divided by the mean kernel time of
the samples taken between start and end, or of the MIN_SAMPLES samples
nearest their middle when fewer fall inside.  run.py multiplies each
operation's latency by the factor of the time it ran.  That gives
seconds on a machine where the kernel takes REF_KERNEL_S, about its
median time on the baseline machine.  On that machine, over 12
repetitions of `densities` whose wall time varied by 11% (coefficient
of variation), log wall time against log factor had slope -1.1 and
correlation -0.95.
In other spells the workloads slowed about twice as much as the kernel
in log terms, and the factor removed only about half of the slowdown.
"""

from __future__ import annotations

import bisect
import itertools
import os
import threading
import time

import numpy as np

# the kernel's median CPU time on the baseline machine (Intel Xeon, 2 vCPU)
REF_KERNEL_S = 2.2e-3
INTERVAL_S = 0.05
# a window with fewer samples than this is widened around its middle
MIN_SAMPLES = 8


class SpeedProbe(threading.Thread):
    def __init__(self) -> None:
        super().__init__(name="speed-probe", daemon=True)
        self._halt = threading.Event()
        self._cpus = sorted(os.sched_getaffinity(0))
        self._array = np.ones(1 << 20)  # 8 MiB, past the L2 cache
        self.times: list[float] = []
        self.costs: list[float] = []

    def _kernel(self) -> float:
        start = time.thread_time()
        s = 0
        for i in range(10_000):
            s += i * i
        self._array.sum()
        return time.thread_time() - start

    def run(self) -> None:
        # visit each core in turn, since the workers use all of them;
        # on Linux this sets the affinity of this thread only
        for cpu in itertools.cycle(self._cpus):
            if self._halt.is_set():
                break
            os.sched_setaffinity(0, {cpu})
            at = time.monotonic()
            cost = self._kernel()
            self.times.append(at)
            self.costs.append(cost)
            self._halt.wait(INTERVAL_S)

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def factor(self, start: float, end: float) -> float:
        """REF_KERNEL_S over the mean kernel time sampled in [start, end]."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < MIN_SAMPLES:
            mid = (lo + hi) // 2
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = min(len(self.times), lo + MIN_SAMPLES)
        return REF_KERNEL_S / (sum(self.costs[lo:hi]) / (hi - lo))
