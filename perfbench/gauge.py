"""A fixed reference loop that follows the machine's speed while the benchmark runs.

The benchmark's host is shared: the same Python and NumPy work takes up to
40% longer in some stretches than in others, in CPU time as well as wall
time, because other tenants contend for the cores and their caches. The
speed changes within fractions of a second and drifts over minutes, so
medians over the passes of one run take out the swings within the run, but
not those between runs.

So while a pass runs, a timer signal runs this loop every ``INTERVAL_S``
seconds, in the benchmark's own process and thread, between two bytecodes of
whatever is running. Each call's time is its wall time minus the loop
samples that ran inside it, multiplied by the mean of ``REF_S / sample`` over
those samples and the one on either side: the time the call would have taken
on a machine that runs the loop in ``REF_S`` seconds. The loop is never
changed by the program under test, so the scaled times compare commits, and
a change that makes the program 10% faster makes them 10% smaller.

The loop mixes the three kinds of work the workloads do: plain Python
bytecode, tiny NumPy calls (4x4 eigensolves and Kronecker products) and a
LAPACK eigensolve at dimension 48.
"""

import bisect
import signal
from contextlib import contextmanager
from statistics import mean
from time import perf_counter

import numpy as np

# Nominal time of one sample, about its median on the 2-vCPU Xeon VM the
# benchmark was built on. It only sets the scale of the reported times.
REF_S = 0.0013
INTERVAL_S = 0.05
BURST = 5  # samples taken back to back around work the timer cannot reach

PY_ITERATIONS = 3_000
SMALL_CALLS = 8


class Gauge:
    """Times the reference loop; every sample does the same work."""

    def __init__(self):
        rng = np.random.default_rng(0)
        small = rng.standard_normal((4, 4))
        large = rng.standard_normal((48, 48))
        self._small = small + small.T
        self._large = large + large.T
        self.starts = []  # perf_counter() at the start of each sample
        self.samples = []  # seconds each sample took

    def _work(self):
        acc = 0
        for i in range(PY_ITERATIONS):
            acc += i * i
        for _ in range(SMALL_CALLS):
            np.linalg.eigh(self._small)
            np.kron(self._small, self._small)
        np.linalg.eigh(self._large)
        return acc

    def sample(self) -> float:
        start = perf_counter()
        self._work()
        elapsed = perf_counter() - start
        self.starts.append(start)
        self.samples.append(elapsed)
        return elapsed

    def burst(self) -> list:
        """``BURST`` samples back to back."""
        return [self.sample() for _ in range(BURST)]

    @staticmethod
    def speed(samples) -> float:
        """Reference seconds per wall second, as the samples measured it."""
        return mean(REF_S / s for s in samples)

    @contextmanager
    def ticking(self):
        """Take a sample every ``INTERVAL_S`` seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, lambda _signum, _frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, end: float) -> tuple:
        """``(reference seconds, wall seconds)`` of the work done from start to end.

        The wall time leaves out the samples taken inside the interval; the
        scale is taken from those and from the nearest sample on either side.
        """
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        wall = end - start - sum(self.samples[i:j])
        return wall * self.speed(self.samples[max(i - 1, 0):j + 1]), wall
