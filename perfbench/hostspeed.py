"""Correction of measured times for the host's speed at the time.

The benchmark runs on shared hosts whose speed swings: for seconds to
minutes at a time every op runs 1.4 to 1.7 times slower, in CPU time as
well as in wall time (see DESIGN.md).  To take that out, a ``Sampler``
runs a fixed reference burst of exact rational arithmetic, the kind of work
orblocal does, from a ``SIGALRM`` timer every ``PERIOD_S`` seconds, also in
the middle of an op.  The burst's CPU time (``time.thread_time``, so that
waiting for the GIL or for the scheduler does not count) measures how fast
the host runs at that moment.

The timed code then loses the time spent in bursts, and a time measured
over a window is multiplied by the mean of ``NOMINAL_S / burst`` over the
bursts in that window.  Since the bursts are spaced evenly in wall time,
that mean is the time average of the host's speed relative to a host on
which one burst takes ``NOMINAL_S``.  The corrected figure is the time the
window would have taken there.  The burst never calls orblocal, so a
change to orblocal moves the corrected times as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
# CPU time of one burst, run from the timer in the middle of orblocal work,
# on the 2-vCPU host of DESIGN.md in its fast state; corrected times are in
# seconds of a host as fast as that.
NOMINAL_S = 0.00025

_M = [[Fraction(3 * i + j + 1, 7 + i + j) for j in range(3)] for i in range(3)]


def burst():
    """A fixed amount of Fraction matrix arithmetic, about 0.25 ms."""
    a = _M
    for _ in range(3):
        a = [[sum(a[i][k] * _M[k][j] for k in range(3)) for j in range(3)]
             for i in range(3)]
    return a


class Sampler:
    """Times one burst every ``PERIOD_S`` seconds of wall time."""

    def __init__(self):
        self.at: list[float] = []     # perf_counter at each burst
        self.cpu: list[float] = []    # CPU time of each burst
        self.spent = 0.0              # wall time spent in bursts so far

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        gc_on = gc.isenabled()
        gc.disable()  # a collection of the program's garbage is not the burst's
        c0 = time.thread_time()
        burst()
        c1 = time.thread_time()
        if gc_on:
            gc.enable()
        self.at.append(t0)
        self.cpu.append(c1 - c0)
        self.spent += time.perf_counter() - t0

    def start(self):
        burst()  # the first call is slower: it sets up what later ones reuse
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def factor(self, since: float, until: float) -> float:
        """Mean of NOMINAL_S / burst over the bursts between two perf_counter reads.

        A window without a burst gets the factor of the nearest one.
        """
        lo = bisect.bisect_left(self.at, since)
        hi = bisect.bisect_left(self.at, until)
        if lo == hi:  # no burst inside: the nearest one
            if not self.at:
                raise RuntimeError("no reference burst has run")
            lo = min(lo, len(self.at) - 1)
            if lo and since - self.at[lo - 1] < self.at[lo] - since:
                lo -= 1
            hi = lo + 1
        return statistics.mean(NOMINAL_S / c for c in self.cpu[lo:hi])
