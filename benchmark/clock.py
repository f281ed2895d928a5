"""A wall clock corrected for drift in the machine's speed.

On shared cores the speed of this process drifts by up to ~1.7x over tens
of seconds, so two timings of identical work differ by more than the
benchmark's bounds.  While a :class:`DriftClock` runs, a timer signal
interrupts the work every ``INTERVAL_S`` and times one fixed reference
block of small complex matmuls, small SVDs and a Python loop, the same mix
of work as the program's.  The block uses no ``vomps`` code, so no change
to the program moves it.  ``normalized_s`` rescales the elapsed time, net
of the blocks, to a machine that runs one block in ``BLOCK_NOMINAL_S``;
``net_s`` is the plain wall time net of the blocks.  With ``sample=False``
the clock only measures wall time.  Signals are delivered to the main
thread, so a sampling clock must run there.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
BLOCK_NOMINAL_S = 1e-3


class DriftClock:

    def __init__(self, sample: bool = True):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((32, 32)) \
            + 1j * rng.standard_normal((32, 32))
        self.sample = sample
        self.blocks = []
        self.net_s = 0.0

    def block(self) -> float:
        """Seconds to run the reference block once."""
        a = self._a
        start = time.perf_counter()
        for _ in range(8):
            a @ a
            np.linalg.svd(a[:16, :16])
            sum(range(300))
        return time.perf_counter() - start

    def _sample(self, signum, frame):
        self.blocks.append(self.block())

    def __enter__(self):
        self.blocks = []
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.net_s = time.perf_counter() - self._start - sum(self.blocks)
        if self.sample:
            signal.signal(signal.SIGALRM, self._previous)
            if not self.blocks:
                self.blocks.append(self.block())
        return False

    @property
    def speed(self) -> float:
        """Nominal over mean block time: below 1 on a slow machine."""
        return BLOCK_NOMINAL_S / statistics.mean(self.blocks)

    @property
    def normalized_s(self) -> float:
        return self.net_s * self.speed
