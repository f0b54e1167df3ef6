"""Host-speed probe: how fast the cores run while a CLI run is timed.

On a shared host each core's speed drifts with what other tenants run on its
hardware neighbours: a fixed pure-Python loop was measured taking anywhere
from its fastest time to twice that, the two cores of a 2-core machine
drifting independently of each other over seconds to minutes.  A run of
the benchmark is too short to average that out.

So a thread of the benchmark process runs a small fixed loop every
``INTERVAL_S`` seconds, on each allowed core in turn, and records the loop's
thread CPU time.  CPU time leaves out the time the thread waits for a core,
so it tracks how fast the core executes, not how busy the CLI keeps it.  The
loop takes about 1.5 ms, so it claims about 3% of one core.  The mean probe
time over a CLI run then scales that run's times to a host on which the loop
takes ``REFERENCE_S``.  Measured on a 2-core machine, this mean and a CLI
run's wall time correlated at 0.86 (CPU time at 0.93).  Over ten 45 s runs
of each workload, scaling cut the interquartile range of the median wall
time from 0.094 to 0.029 of that median on grid-deep, and from 0.217 to
0.068 on distribution-full.
"""

from __future__ import annotations

import os
import threading
import time

LOOP = 20000
INTERVAL_S = 0.05
# About the median probe time on the 2-core machine the bounds were set on,
# so that adjusted times there read close to raw ones.
REFERENCE_S = 1.5e-3


def probe_once() -> float:
    """Thread CPU seconds of one fixed loop on the current core."""
    start = time.thread_time()
    total = 0
    for i in range(LOOP):
        total += i * i
    return time.thread_time() - start


class SpeedProbe:
    """Context manager: samples the probe on every allowed core in turn until it exits."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (monotonic time, probe seconds)
        self._stop = threading.Event()
        self._first = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        self._first.wait()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        turn = 0
        while True:
            # Pins this thread only; the CLI processes inherit the main thread's affinity.
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
            turn += 1
            self.samples.append((time.monotonic(), probe_once()))
            self._first.set()
            if self._stop.wait(INTERVAL_S):
                return

    def mean_between(self, start: float, end: float) -> float:
        """Mean probe seconds sampled in [start, end], or the latest sample if none fell there."""
        inside = [seconds for stamp, seconds in self.samples if start <= stamp <= end]
        if not inside:
            inside = [self.samples[-1][1]]
        return sum(inside) / len(inside)

    def factor(self, start: float, end: float) -> float:
        """Multiplier that takes times measured in [start, end] to the reference host speed."""
        return REFERENCE_S / self.mean_between(start, end)
