"""The fixed computation that operation times are expressed in.

One calibration unit ("cal") is the wall time of :func:`work`: an
interpreted two-state float recurrence, the same kind of work as the
simulator's stepping loop, that calls no capcycle code, so no change to the
program can move it.

:class:`Sampler` times :func:`work` right before, right after, and every
``INTERVAL_S`` during an operation, from a ``SIGALRM`` handler in the same
thread.  The operation's unit is the mean of those samples, so a
machine-wide slowdown moves the operation and its unit together and cancels
in their ratio, even when it comes and goes within the operation.  A sample
longer than ``OUTLIER`` times the median was descheduled part of the way and
is left out.  The time the handler spends is taken out of the operation's
time.

The probe allocates nothing but float temporaries.  Probes that also
formatted strings or built numpy arrays tracked worse (README, "Why op_cal"):
inside an operation their cost follows the program's heap as well as the
machine.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
"""Period of the in-operation samples."""
BRACKET = 20
"""Samples taken right before, and again right after, each operation."""

OUTLIER = 3.0
"""Samples longer than this many medians are left out of the unit."""


def work() -> float:
    """One calibration unit of work (about 0.2 ms on a 2-vCPU cloud VM)."""
    x = y = 1.0
    for _ in range(1_500):
        x, y = 0.99998 * x + 2e-5 * y + 1e-6, 1e-4 * x + 0.9999 * y
    return x + y


class Sampler:
    """Calibration samples around and inside one operation.

    Use as a context manager around the operation.  :meth:`clock` is
    ``time.perf_counter`` minus the time spent in in-operation samples, so
    intervals read from it exclude the sampling.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.in_op_s = 0.0

    def _sample(self) -> float:
        t0 = time.perf_counter()
        work()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def _on_alarm(self, signum, frame) -> None:
        self.in_op_s += self._sample()

    def clock(self) -> float:
        return time.perf_counter() - self.in_op_s

    def __enter__(self) -> "Sampler":
        for _ in range(BRACKET):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(BRACKET):
            self._sample()

    def unit_s(self) -> float:
        """Mean seconds of one calibration unit while the operation ran."""
        cutoff = OUTLIER * statistics.median(self.samples)
        return statistics.fmean(x for x in self.samples if x <= cutoff)
