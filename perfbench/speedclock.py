"""Time in units of a fixed yardstick run, interleaved with the program.

On a shared host (measured on a 2-vCPU Xeon VM) the speed of the CPU the
benchmark gets changes by up to about 1.8x from second to second and from
minute to minute, with no steal time visible inside the VM: raw seconds of the same code then differ by tens
of percent between runs.  The clock here measures that speed while the
program runs.  A SIGALRM timer interrupts the program every PERIOD_S seconds
and runs ``yardstick()``, a fixed pure-Python loop, timing it.  An interval
of the program's own time is then converted into yardsticks: each stretch
between two interruptions is divided by the duration of the yardstick run
that ends it.  The time the yardsticks take is left out.

The result is how many yardstick runs the machine could have made in the
time the program took.  It falls in proportion when the program gets faster,
and stays put when the whole machine slows down, because the yardstick
slows with it.  ``yardstick`` must never change: the numbers of two versions
of the program are comparable only while it stays the same.

Python runs signal handlers in the main thread between bytecodes, so a
handler never runs inside the timed code's own bookkeeping; a long call into
C (a LAPACK determinant, say) only delays the next interruption.
"""
from __future__ import annotations

import bisect
import math
import signal
from time import perf_counter

PERIOD_S = 0.02


def yardstick() -> float:
    """The fixed reference work: about 0.2 ms of interpreted float arithmetic."""
    s = 0.0
    for i in range(1, 1500):
        s += math.cos(i * 0.1) / i
    return s


class SpeedClock:
    """Records (start, end) of every yardstick run while it is running."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        yardstick()
        self.starts.append(t0)
        self.ends.append(perf_counter())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(seconds, yardsticks) of the program's own time in [start, end].

        Yardstick runs inside the interval are left out of both.  The last
        stretch is divided by the run that follows the interval, or by the
        one before it when the clock stopped in between.
        """
        k = bisect.bisect_left(self.starts, start)
        cursor, seconds, yardsticks = start, 0.0, 0.0
        while k < len(self.starts) and self.starts[k] < end:
            gap = self.starts[k] - cursor
            seconds += gap
            yardsticks += gap / (self.ends[k] - self.starts[k])
            cursor = self.ends[k]
            k += 1
        if k == len(self.starts) or (k > 0 and self.starts[k] - end > 2 * PERIOD_S):
            k -= 1  # no run right after the interval: the clock was stopped
        gap = end - cursor
        seconds += gap
        yardsticks += gap / (self.ends[k] - self.starts[k])
        return seconds, yardsticks
