"""A fixed probe, timed while a workload runs, that measures how fast the
host runs the benchmark process at the moment.

On a shared machine other tenants take the CPU for stretches from
milliseconds to minutes, and wall time spreads with them.  The probe is a
fixed piece of work in the same process, so it waits for the CPU just as
the workload does.  Over a stretch of time, the probe's mean duration over
its full-speed duration is the stretch's slowdown, and a duration divided by
it is the duration at full speed.  Every second of the workload's own work
stays in; only the wait is taken out.  The mean, not a low quantile, is the
right statistic: a probe run either gets the CPU or waits a whole time slice
for it, and the mean weighs the two as the workload meets them.

The probe runs twice per sample and only the second run is timed.  The
first brings its code and data back into cache, so the timed run does not
depend on how much memory the workload touched just before it: a cold probe
slows by about 30% after a 40 MB pass, a warm one does not move.  The probe
uses only Python and NumPy, never the package.
"""

from __future__ import annotations

import time

import numpy as np

# Mean duration of one warm probe run on the unloaded 2-core x86-64 host the
# benchmark was sized on (Python 3.11, NumPy 2.4).  It only sets the unit:
# durations are reported in seconds of that host at full speed.
FULL_SPEED_S = 6.7e-5
# Wall time between two samples while a solve runs: the probe takes about 4%.
PERIOD_S = 0.003

_A = np.linspace(0.1, 1.0, 9).reshape(3, 3)


def kernel() -> float:
    """Interpreted code on 3 x 3 arrays, like one block update."""
    total = 0.0
    for _ in range(10):
        b = np.exp(_A - _A.max())
        total += float(np.log(b.sum(axis=1)).sum())
    return total


class Probe:
    """Timed probe samples, in the order they were taken."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0

    def sample(self) -> float:
        """Warm the probe, time one run, and return the time both took."""
        start = time.perf_counter()
        kernel()
        warm = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - warm)
        self.spent_s += end - start
        return end - start


def slowdown(samples) -> float:
    """Host slowdown over the stretch in which ``samples`` were taken."""
    return float(np.mean(samples)) / FULL_SPEED_S
