"""How fast the host runs, sampled while the timed commands run.

The benchmark shares a few CPUs of a host whose other tenants change its
speed by up to 2x within a minute.  A timer signal runs a short, fixed
reference loop every ``PERIOD`` seconds inside the benchmark's own process,
between the bytecodes of whatever command is running.  The loop thus meets
the same CPU share, caches and memory bandwidth as the commands around it,
and a command's host time divided by the mean loop time measured while it
ran is its cost in units of the loop: what the program costs, with the
host's momentary speed taken out.

The time the loop itself takes is recorded as intervals, so the caller can
subtract exactly the part that falls inside a timed command.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time

import numpy as np

PERIOD = 0.1  # seconds between samples; each sample takes about 6 ms
# Converts a time in reference-loop units back to seconds: about the loop's
# time on the reference machine with the host quiet.  Any fixed value would
# do; comparisons hold because every commit uses this one.
NOMINAL_S = 0.006

# The loop mixes the three kinds of work ptcsim does: pure-Python loops
# (the column search), many small numpy calls (per-core products) and bulk
# numpy passes (noise draws).  Its inputs are fixed, so its work never
# changes from run to run.
_SMALL = np.arange(16.0).reshape(4, 4)
_BULK = np.random.default_rng(0).standard_normal(150_000)


def reference_loop() -> None:
    acc = 0
    for c in itertools.combinations(range(18), 4):
        acc += c[0] * c[3] - c[1]
    a = _SMALL
    for _ in range(900):
        a = np.cos(a) @ a.T * 0.1 + 1.0
    np.sort(_BULK * 1.0001).sum()


class HostSpeed:
    """Samples of the reference loop, taken on a timer while armed."""

    def __init__(self) -> None:
        self.spans: list[tuple[float, float]] = []  # (start, end) of each sample
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        """Time one pass of the reference loop and record it."""
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        start = time.perf_counter()
        reference_loop()
        self.spans.append((start, time.perf_counter()))
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def arm(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def take(self) -> list[tuple[float, float]]:
        """The samples since the last call, and forget them."""
        spans, self.spans = self.spans, []
        return spans


def spent_within(spans, start: float, end: float) -> float:
    """Seconds of the sample intervals that fall inside [start, end]."""
    return sum(max(0.0, min(b, end) - max(a, start)) for a, b in spans)


def started_within(spans, start: float, end: float) -> list[tuple[float, float]]:
    """The samples taken while [start, end] ran."""
    return [(a, b) for a, b in spans if start <= a <= end]


def mean_sample_s(spans) -> float:
    return statistics.fmean(b - a for a, b in spans)
