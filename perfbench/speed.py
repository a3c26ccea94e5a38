"""Host-speed normalization of the benchmark's times.

The CPU speed of the shared host this benchmark was defined on swings by
up to 2x with other tenants' load, often several times a second.
Process CPU time tracks wall time, so no clock removes that, and it
would set most of the run-to-run spread of any time.  So while timed work runs, a
SIGALRM handler times ``reference()``, a fixed pure-Python task, every
``EVERY_S`` seconds, and every interval the benchmark reports is scaled
by the mean of ``REFERENCE_S / sample`` over the samples taken within
``WINDOW_S`` of it.  A reported time is thus the time the work would
have taken with the reference task at ``REFERENCE_S``, the task's time
on that host when uncontended: there the scale is about 1.

The collector is off while the task runs, so the program's heap size
does not change the task's cost.  The handler's own time (about 1.5% of
the run) stays inside the intervals it interrupts, in every run alike.
Sampling every 20 ms and scaling each interval by the samples taken
within it roughly halves the spread that a 0.25 s window leaves on a
0.2 s job.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

EVERY_S = 0.02
WINDOW_S = 0.02
REFERENCE_S = 0.00029


def reference() -> int:
    """Small dict and tuple churn, hashing and calls, like the explorer."""
    acc = 0
    d: dict = {}
    for i in range(300):
        key = (i % 97, "k", i % 13)
        d = dict(d) if len(d) < 6 else {}
        d[key] = (i, key)
        acc ^= hash(frozenset(d)) ^ hash((key, i % 7))
    return acc


class SpeedSampler:
    def __init__(self):
        self.times: list = []  # end of each sample, ascending
        self.scales: list = []  # REFERENCE_S / sample duration

    def _sample(self, *_):
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.times.append(t1)
        self.scales.append(REFERENCE_S / (t1 - t0))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        return False

    def scale(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean scale of the samples within ``WINDOW_S`` of [start, end],
        or of the nearest ones when a late signal left none there."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.scales[lo:hi] or self.scales[max(lo - 1, 0):lo + 1]
        return sum(near) / len(near)
