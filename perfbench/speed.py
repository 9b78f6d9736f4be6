"""How fast the machine runs right now, measured alongside the program.

The benchmark shares its processor with other work, and on a shared host
the same interpreter loop can run twice as fast at one minute as at the
next.  ``Sampler`` runs a fixed reference computation (exact rational
arithmetic into a dict, like the evaluator's inner loops) from a timer
signal every ``interval`` seconds while a run goes on, and records how
long each sample took.  ``factor`` turns the median sample into a scale
that maps measured seconds to seconds at the reference speed, where one
sample takes ``REFERENCE_S``.  Times reported at that speed vary with
the program, far less with the host.

The program does not speed up and slow down as much as the reference
does: interleaving the two on a shared two-processor host, the log of an
operation's time followed the log of the reference's time with slopes
of 0.5 to 0.8 (correlation about 0.8) across small CLI operations and
k = 6 and k = 30 demos.  ``factor`` therefore applies the reference's
speed ratio raised to ``SENSITIVITY``.

Each sample's own time is kept in ``stolen`` so that callers subtract it
from what they time.  The handler raises the recursion limit while it
runs, so a sample landing in a deep recursion never makes it fail.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.002  # one sample's duration at the reference speed
SENSITIVITY = 0.6  # d log(program time) / d log(reference time), fitted

_ZERO = Fraction(0)
_THIRD = Fraction(1, 3)


def reference_work() -> dict:
    """The fixed computation every sample times."""
    acc: dict = {}
    for i in range(400):
        key = i & 31
        acc[key] = acc.get(key, _ZERO) + _THIRD * Fraction(i % 7 + 1, 11)
    return acc


class Sampler:
    """Reference samples from SIGALRM while the context is open."""

    def __init__(self, interval: float, on_sample=None):
        self.interval = interval
        self.on_sample = on_sample  # called with each sample's own duration
        self.samples: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def sample(self) -> None:
        entered = time.perf_counter()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + 200)
        try:
            t0 = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - t0)
        finally:
            try:
                sys.setrecursionlimit(limit)
            except RecursionError:
                pass  # the run resets the limit after the operation
        spent = time.perf_counter() - entered
        self.stolen += spent
        if self.on_sample:
            self.on_sample(spent)

    def _handler(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, at_least: int = 20) -> float:
        """Seconds at the reference speed per measured second.  Takes
        samples on the spot when the run gave fewer than ``at_least``."""
        while len(self.samples) < at_least:
            self.sample()
        return (REFERENCE_S / statistics.median(self.samples)) ** SENSITIVITY
