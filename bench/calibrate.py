"""A speed gauge: a fixed reference kernel that shows how fast the machine runs now.

On a shared host the speed of the same code moves by a quarter or more
within a second, and from one run to the next, as neighbours come and go;
the reference kernel below slows in step with rfa's own operations.  The
benchmark runs the kernel about every ``PERIOD`` seconds, from a timer
signal that interrupts whatever runs, and states every time metric at a
nominal machine speed, the speed at which one kernel run takes
``REFERENCE_MS``:

    normalised time = (measured time - kernel time inside it)
                      * REFERENCE_MS / mean kernel time around it

A change to rfa moves its operation times and leaves the kernel alone, so
it shows in full; a change of machine speed moves both and cancels.  The
kernel is pure Python, like rfa's hot paths: tuple arithmetic in
generator expressions (RK4 steps), a small value class with operator
methods (``LcNumber``), float formatting and joins (CSV export) and a
dictionary.  It is benchmark code and never calls rfa.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter, process_time

# Wall time of one kernel run at the nominal speed: a 2-vCPU Xeon VM under
# Python 3.11 takes 0.8-1.6 ms, depending on its neighbours, 1.25 ms typically.
REFERENCE_MS = 1.25
# Seconds between two kernel runs of the gauge.
PERIOD = 0.025
ITERATIONS = 250


class _Pair:
    __slots__ = ("re", "fu")

    def __init__(self, re, fu):
        self.re = re
        self.fu = fu

    def __mul__(self, other):
        return _Pair(self.re * other.re - self.fu * other.fu, self.re * other.fu + self.fu * other.re)

    def __add__(self, other):
        return _Pair(self.re + other.re, self.fu + other.fu)


def kernel() -> float:
    """One fixed batch of work; returns a checksum so nothing is skipped."""
    idx = range(4)
    s = (1.0, 0.5, 0.1, -0.2)
    z = _Pair(0.999, 0.001)
    acc = _Pair(0.0, 0.0)
    seen = {}
    lines = []
    for j in range(ITERATIONS):
        k = tuple(s[i] * 0.999 + 0.001 * s[3 - i] for i in idx)
        s = tuple(s[i] + 0.5 * (k[i] - s[i]) for i in idx)
        acc = acc * z + _Pair(s[0], s[1])
        seen[j & 63] = acc
        if j % 8 == 0:
            lines.append(",".join(repr(v) for v in s))
    return acc.re + len("\n".join(lines)) + len(seen)


def samples(runs: int) -> list[float]:
    """Wall seconds of ``runs`` kernel runs back to back."""
    out = []
    for _ in range(runs):
        t0 = perf_counter()
        kernel()
        out.append(perf_counter() - t0)
    return out


def scale(kernel_seconds) -> float:
    """Factor that states times measured beside these kernel runs at nominal speed."""
    return REFERENCE_MS / (1e3 * statistics.fmean(kernel_seconds))


class Gauge:
    """Runs the kernel from a SIGALRM timer every ``PERIOD`` seconds while started.

    Each run is recorded with its start time and its wall and CPU
    durations; ``normalise`` turns the time of a stretch of work into
    nominal time from the runs inside and around it.
    """

    def __init__(self):
        self.at = array("d")
        self.wall = array("d")
        self.cpu = array("d")
        self._previous = None

    def _tick(self, signum, frame):
        c0, t0 = process_time(), perf_counter()
        kernel()
        self.wall.append(perf_counter() - t0)
        self.cpu.append(process_time() - c0)
        self.at.append(t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def normalise(self, t0: float, wall: float, cpu: float) -> tuple[float, float]:
        """Nominal (wall, cpu) of work that started at ``t0`` and took ``wall``/``cpu``.

        Kernel runs that interrupted the work are taken out of its time;
        the speed is the mean of the runs from one period before the work
        to one period after it.
        """
        at = self.at
        inside = slice(bisect_left(at, t0), bisect_right(at, t0 + wall))
        around = slice(bisect_left(at, t0 - PERIOD), bisect_right(at, t0 + wall + PERIOD))
        if around.start == around.stop:  # the timer was held up: take the nearest runs
            around = slice(max(around.start - 1, 0), around.start + 1)
        net_wall = wall - sum(self.wall[inside])
        net_cpu = cpu - sum(self.cpu[inside])
        return net_wall * scale(self.wall[around]), net_cpu * scale(self.cpu[around])
