"""Machine-speed reference for the end-to-end times.

The benchmark shares its host with other work, and the speed a process
gets drifts by up to a factor of two within a minute.  So the child
process runs a fixed pure-Python kernel (big-integer and Fraction
arithmetic and a set closure, like conclab's own work) in brackets
between jobs and, from a wall-clock timer signal, every ``INTERVAL_S``
during a job.  A kernel run that takes ``s`` seconds says the process
ran at ``NOMINAL_S / s`` of nominal speed just then; a job's time at
nominal speed is its own wall time (kernel runs taken out) times
``NOMINAL_S / median(s)`` over the samples around and inside it.  The
median ignores both the samples a passing hiccup slows and the few that
run unusually fast.  The raw wall times are printed beside the scaled
ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# median kernel() time on the 2-core benchmark host, quiet
NOMINAL_S = 0.00063
INTERVAL_S = 0.05         # kernel runs inside a job: about 2 % of its time
BRACKET = 8               # kernel runs between two jobs


def kernel() -> float:
    """Run the fixed kernel once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0
    big = 12345678901234567890123456789
    for i in range(1, 1500):
        acc = (acc + i * big) % 1000000007
    f = Fraction(0)
    for i in range(1, 60):
        f += Fraction(i, i * i + 1)
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:                 # closure of two generators in Z_17 + Z_13
        x = frontier.pop()
        for g in ((1, 2), (3, 1)):
            y = ((x[0] + g[0]) % 17, (x[1] + g[1]) % 13)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return time.perf_counter() - t0


def bracket() -> list[float]:
    return [kernel() for _ in range(BRACKET)]


def speed(samples: list[float]) -> float:
    """Speed relative to nominal: the median over kernel samples."""
    return NOMINAL_S / statistics.median(samples)


class Sampler:
    """Runs ``kernel()`` from SIGALRM every INTERVAL_S while armed."""

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, lambda _sig, _frame: self.samples.append(kernel()))

    def __enter__(self) -> "Sampler":
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
