"""Fixed reference work timed around every measured sample.

The box the benchmark was built on drifts in speed by 20-30 % between
15-second windows, because other tenants share the host and no CPU
pinning or frequency control is available.  Each timed sample is
therefore bracketed by a fixed piece of reference work of the same nature,
and reported scaled to the reference's nominal time:

    normalized = raw * NOMINAL / mean(reference before, reference after)

In-process samples use a kernel of Philox draws plus a pure-Python loop;
whole processes (CLI runs, set-up spawns) use a process that imports
numpy.  On that box this cut the spread of 15-second medians from about
25 % to about 6 % in process, and from about 14 % to about 5 % for CLI
processes.  Neither reference touches qmachine, so a change to the program
moves the normalized figures as much as the raw ones.  Results keep the
raw figures next to the normalized ones.
"""

from __future__ import annotations

import sys
import time

# Median reference times on the 2-core Xeon box at the commit that added
# the benchmark; they only fix the scale of the normalized figures.
KERNEL_NOMINAL_S = 0.0174
PROCESS_NOMINAL_S = 0.155

PROCESS_ARGV = (sys.executable, "-c", "import numpy")


def kernel_seconds() -> float:
    """Wall time of the in-process reference kernel."""
    import numpy as np

    t0 = time.perf_counter()
    np.random.Generator(np.random.Philox(7)).random(1 << 20)
    total = 0
    for i in range(150_000):
        total += i
    return time.perf_counter() - t0


class Clock:
    """Raw and normalized seconds of every timed block, listed per key.

    ``with clock("spin.eps1"): ...`` times the block; the reference kernel
    runs before the first block and after every block (outside the timed
    blocks), and each block is scaled by the mean of the references on
    either side of it.
    """

    def __init__(self):
        self.raw: dict[str, list[float]] = {}
        self.norm: dict[str, list[float]] = {}
        self._key = None
        self._ref = kernel_seconds()

    def __call__(self, key: str) -> "Clock":
        self._key = key
        return self

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        dt = time.perf_counter() - self._t0
        before, self._ref = self._ref, kernel_seconds()
        self.raw.setdefault(self._key, []).append(dt)
        self.norm.setdefault(self._key, []).append(
            normalized(dt, KERNEL_NOMINAL_S, before, self._ref)
        )
        return False


def normalized(raw_s: float, nominal_s: float, before_s: float, after_s: float) -> float:
    """``raw_s`` scaled by nominal over the mean of the references around it."""
    return raw_s * nominal_s / (0.5 * (before_s + after_s))
