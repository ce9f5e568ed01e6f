"""A fixed reference loop that tracks how fast the machine runs right now.

On a shared virtual machine the speed of one core moves by 20-50% from
second to second and in phases that last minutes, for pure-Python loops
and for the package alike, in CPU time as in wall time. A run of a few
tens of seconds cannot average such phases away, so two runs of the same
code can differ by more than any useful bound.

The benchmark therefore times a short probe, which does the same work on
every call and touches nothing of the package (it makes no container, so
it never runs the garbage collector either), every SAMPLE_EVERY_S
seconds of wall time from a SIGALRM handler, that is in the middle of
the operations being measured. The handler's own time is taken out of
the operation's time. An operation's time is then scaled by REF_S over
the mean time of the probes taken during it or within MARGIN_S of it:
the figures read as seconds at the speed at which one probe takes REF_S,
about the probe's median time on the machine the benchmark was written
on (nproc 2, Python 3.11.7). A change to the package moves the
operation's time and not the probe's, so it shows in full.

Python runs signal handlers between bytecodes of the main thread, so no
probe runs inside a long call into C (a sparse solve, say); such a call
is scaled by the probes just before and after it.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

# About the median time of one probe on the machine the benchmark was
# written on.
REF_S = 0.0007
COMPUTE_ITERATIONS = 1_000
LOOKUP_ITERATIONS = 500
SAMPLE_EVERY_S = 0.025
# An operation is scaled by the probes during it and this close to it.
MARGIN_S = 0.1

# The probe is two loops. Integer arithmetic alone stays in the core's own
# caches; lookups at pseudo-random keys of a dictionary of a few megabytes
# also feel the memory traffic of other tenants. Which of the two tracked
# the workloads' speed more closely changed from one phase of the machine
# to the next; their sum hedges between them.
_TABLE = {k: k for k in range(1 << 16)}


def probe() -> float:
    """Seconds taken by one fixed loop of arithmetic and one of lookups."""
    table = _TABLE
    s = 0
    j = 1
    start = perf_counter()
    for i in range(COMPUTE_ITERATIONS):
        j = (j * 1103515245 + 12345) & 0xFFFF
        s ^= j + i
    for i in range(LOOKUP_ITERATIONS):
        j = (j * 1103515245 + 12345) & 0xFFFF
        s ^= table[j] + i
    elapsed = perf_counter() - start
    if s < 0:  # never true; keeps the loop's result in use
        raise AssertionError(s)
    return elapsed


class Sampler:
    """Takes a probe every SAMPLE_EVERY_S seconds while it is running.

    `busy` is the total time spent in the handler, so that a caller can
    take it out of the time it measures; `at` and `took` are each probe's
    start and duration.
    """

    def __init__(self):
        self.at = []
        self.took = []
        self.busy = 0.0
        self._previous = None

    def _handle(self, signum, frame):
        start = perf_counter()
        self.took.append(probe())
        self.at.append(start)
        self.busy += perf_counter() - start

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, seconds, start, end):
        """`seconds`, measured over [start, end], at the reference speed:
        scaled by the mean of the probes in [start, end] widened by
        MARGIN_S on each side, and further until at least one lies in it."""
        margin = MARGIN_S
        while True:
            lo = bisect_left(self.at, start - margin)
            hi = bisect_right(self.at, end + margin)
            if hi > lo:
                return seconds * REF_S * (hi - lo) / sum(self.took[lo:hi])
            if margin > 60:
                raise RuntimeError("no speed probe near the operation")
            margin += MARGIN_S
