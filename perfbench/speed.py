"""The speed of the core the benchmark runs on, sampled all through a run.

The reference machine is a shared 2-core container. As other tenants of
the host come and go, a core runs the same code up to about 1.5x slower,
in CPU time as well as in wall time, for a few seconds to a few minutes
at a time. Raw times then move by that much between runs of unchanged
code.

So a timer signal runs a fixed *probe* every SAMPLE_EVERY_S seconds, also
in the middle of an operation, and records how long it took. An
operation's time is scaled to the reference speed, at which the probe
takes PROBE_REF_S, by the probes taken during it and just around it. A
change to the library moves the operation's time and not the probe's, so
it shows in full in the scaled time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array
from fractions import Fraction

import numpy as np
# bound at import, before any tracing, so probes never enter work counts
from numpy.linalg import eigh

CLOCK = time.perf_counter
# The probe: work like the library's, exact rational sums and 6x6 LAPACK
# eigensolves; about 1 ms.
PROBE_TERMS = 200
PROBE_SOLVES = 20
PROBE_MATRIX = np.add.outer(np.arange(6.0), np.arange(6.0)) % 5 - 2.0
# About the probe's time on the reference machine with its core
# undisturbed (0.8-0.9 ms).
PROBE_REF_S = 0.0009
SAMPLE_EVERY_S = 0.05
# Probes this far before an operation's start and after its end also count
# for it, so that even the shortest operation has a few.
PAD_S = 0.1


def probe():
    """Seconds the fixed probe work takes now."""
    t0 = CLOCK()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS + 1):
        total += Fraction(1, i)
    for _ in range(PROBE_SOLVES):
        eigh(PROBE_MATRIX)
    return CLOCK() - t0


def factor(samples):
    """Scale from now to the reference speed, from a few probes taken now."""
    return PROBE_REF_S / statistics.median(samples)


class Sampler:
    """Takes a probe every SAMPLE_EVERY_S seconds from a SIGALRM handler
    while entered.

    The handler runs between two bytecodes of whatever runs then, in the
    same thread on the same core. ``spent`` is the time the handler took
    in all, so that callers can take it out of the times they measure.
    """

    def __init__(self):
        self.at = array("d")       # midpoint of each probe
        self.took = array("d")
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = CLOCK()
            took = probe()
            self.at.append(t0 + took / 2)
            self.took.append(took)
            self.spent += CLOCK() - t0
        finally:
            self._busy = False

    def __enter__(self):
        self._on_alarm(None, None)     # one probe at the start, at least
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start, end, seconds):
        """`seconds` of work done between `start` and `end`, at the
        reference speed: the mean over the probes from PAD_S before to PAD_S
        after of the speed each one measured."""
        lo = bisect.bisect_left(self.at, start - PAD_S)
        hi = bisect.bisect_right(self.at, end + PAD_S)
        if lo == hi:     # no probe close by: take the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        speeds = [PROBE_REF_S / t for t in self.took[lo:hi]]
        return seconds * sum(speeds) / len(speeds)
