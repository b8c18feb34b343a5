"""Speed of the machine, measured next to and during each timed call.

The box this benchmark was built on is shared: over seconds to minutes it
alternates between two speeds about a factor of two apart, and the same
code then times 20-50% apart from run to run.  ``kernel`` times a fixed
pure-Python loop (rational arithmetic, dict updates and float math, the
mix ``bcq`` spends its time in).  A call's time scaled by
``REFERENCE_S / kernel time`` is its time at the speed at which the
kernel takes ``REFERENCE_S``: how fast it ran on that box in its fast
state.  Raw times stay in the per-operation records.
"""

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0019
SAMPLE_INTERVAL_S = 0.05


def kernel() -> float:
    """Seconds the fixed kernel takes now."""
    start = time.perf_counter()
    x = Fraction(1, 3)
    acc = {}
    for i in range(240):
        x = (x * x + Fraction(1, 7)) / (x + 1)
        x = Fraction(x.numerator % 10007, x.denominator % 10009 or 1)
        key = (i % 37, i % 11)
        acc[key] = acc.get(key, 0.0) + float(x) ** 0.5
    return time.perf_counter() - start


def speed_now() -> float:
    """Median kernel time over a few back-to-back runs."""
    return statistics.median(kernel() for _ in range(7))


class SpeedMeter:
    """Runs the kernel every SAMPLE_INTERVAL_S while the block runs (on
    SIGALRM), so that a long call is scaled by the speed the machine had
    while it ran.  ``samples`` holds the kernel times; their sum is time
    the block did not spend on its own work."""

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def _tick(self, _signum, _frame):
        self.samples.append(kernel())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
