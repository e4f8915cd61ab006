"""Host-speed reference for the timed chunks.

On a shared host the CPU's speed swings by up to 2x within seconds (another
tenant on the same physical core slows every instruction alike, with no steal
time to show for it), so the wall-clock rate of unchanged code spreads widely
from run to run.  A SpeedProbe measures that speed while the program runs: a
5 ms interval timer interrupts the process and the signal handler times a
fixed pure-Python loop.  The loop's mean duration over a chunk tracks the
chunk's own time closely (correlation 0.91-0.97 on every workload of this
benchmark, on a 2-vCPU KVM guest), so run.py scales each chunk to a host on
which the loop takes REF_TICK_US microseconds.  The loop never touches the
program, so a slower program still reads slower.

Imports nothing beyond the standard library: setup_probe.py starts a probe
before it imports mcmcast.
"""

from __future__ import annotations

import contextlib
import signal
import time

INTERVAL_S = 0.005
LOOP_N = 500
# Roughly the loop's mean duration while a 2-vCPU Xeon KVM guest with
# Python 3.11 ran unloaded (it read 25-40 us under load).  Only the scale of
# the reported figures depends on it.
REF_TICK_US = 25.0


def _loop() -> int:
    s = 0
    for i in range(LOOP_N):
        s += i * i % 7
    return s


class SpeedProbe:
    """Counts the loop's runs and the nanoseconds they took while running()."""

    def __init__(self, ticks: int = 0, ns: int = 0) -> None:
        self.ticks = ticks
        self.ns = ns

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        _loop()
        self.ns += time.perf_counter_ns() - t0
        self.ticks += 1

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def seconds(self) -> float:
        """Time the loop took from the measured interval."""
        return self.ns / 1e9

    def scale(self) -> float:
        """Factor taking a duration measured now to the reference host:
        below 1 when this host ran slower than the reference."""
        if not self.ticks:
            return 1.0
        return REF_TICK_US * 1e3 * self.ticks / self.ns
