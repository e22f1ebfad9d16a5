"""Machine-speed probe used to adjust timings for host speed drift.

On a shared virtual machine the speed of one vCPU drifts with the load of
other tenants: on the 2-vCPU host of the first baseline, the same round took
anywhere from 3.7 s to 9.9 s within half an hour, and far less within one
minute. No bound of 25% or less survives that.
So every timed block also runs a fixed pure-Python loop (the probe) that
shares no code with the package, and reports its time scaled by
speed = REFERENCE_S / probe time: the time the block would have taken at
the speed where one probe takes REFERENCE_S. A change to the package moves
the block's time and not the probe, so it shows in full.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

REFERENCE_S = 250e-6    # probe time that defines speed 1
PERIOD_S = 0.02         # probe interval during a block; costs about 1.5%
BURST = 20              # probes taken back to back by burst()


def probe() -> float:
    """Seconds for a fixed integer loop in the interpreter."""
    x = 1
    t0 = perf_counter()
    for _ in range(2000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return perf_counter() - t0


def burst() -> float:
    """Speed now, from BURST probes in a row."""
    return statistics.fmean(REFERENCE_S / probe() for _ in range(BURST))


class Sampler:
    """Probes every PERIOD_S seconds of a `with` block from a timer signal;
    afterwards `speed` holds the block's mean speed."""

    def __enter__(self):
        self._speeds = []
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _on_timer(self, signum, frame):
        self._speeds.append(REFERENCE_S / probe())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.speed = statistics.fmean(self._speeds) if self._speeds else burst()
