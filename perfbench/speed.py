"""Op times scaled to a reference machine speed.

A shared virtual machine switches between fast and slow CPU states every
few seconds: on the 2-core Xeon VM used here a fixed loop ran up to 1.5
times slower for spells of 5 to 15 seconds, and a 1.5-second op could be
20% slower from one call to the next.  A figure pooled over a 20-second
run then depends on how long the run spent in each state.

:class:`Speedometer` therefore times a fixed probe loop, which touches
nothing of dinicvx, before and after each op and every ``INTERVAL`` seconds
during it (from a ``SIGALRM`` handler, in the measuring thread, between
the program's bytecodes).  The op's wall time, without the probes, is cut
into segments at the probes, and each segment is scaled by the reference
probe time over the mean of the two probes around it.  A change to the
program cannot change the probe's time; only the machine's speed of the
moment can.
"""

from __future__ import annotations

import signal
from time import perf_counter

# Seconds between probes during an op, and the probe's time in the fast CPU
# state of the reference machine (about the least of its readings over 40
# seconds), so that scaled times read as seconds in that state.
INTERVAL = 0.02
PROBE_REF_SECONDS = 0.00021

_probe_array = None


def probe_seconds() -> float:
    """Best of two timings of a fixed Python and numpy loop (0.2 ms each).

    The better of two keeps an interrupt in one of them out of the reading.
    """
    global _probe_array
    import numpy as np

    if _probe_array is None:
        _probe_array = np.random.default_rng(0).random(4096)
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        total = 0
        for i in range(3000):
            total += i * i
        np.sort(np.exp(_probe_array)).sum()
        best = min(best, perf_counter() - t0)
    return best


def scale(marks: list[tuple[float, float, float]]) -> tuple[float, float]:
    """Wall and scaled seconds between the first and the last probe.

    ``marks`` are ``(start, probe_seconds, end)`` of each probe, in order;
    the time the probes themselves took is left out of both figures.
    """
    wall = scaled = 0.0
    for (_, before, end), (start, after, _) in zip(marks, marks[1:]):
        wall += start - end
        scaled += (start - end) * PROBE_REF_SECONDS * 2 / (before + after)
    return wall, scaled


class Speedometer:
    """Times calls with speed probes before, during and after them."""

    def __init__(self, interval: float = INTERVAL) -> None:
        self.interval = interval
        self._marks: list[tuple[float, float, float]] = []
        self._armed = False

    def _sample(self, *_signal) -> None:
        start = perf_counter()
        probe = probe_seconds()
        self._marks.append((start, probe, perf_counter()))
        if _signal and self._armed:  # re-armed after the probe: no nesting
            signal.setitimer(signal.ITIMER_REAL, self.interval)

    def measure(self, fn):
        """Call ``fn()``; return its result, wall seconds and scaled seconds."""
        self._marks = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        try:
            result = fn()
        finally:
            # A signal already raised may still run the handler after this;
            # disarmed, it takes a probe but sets no new timer.
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        return (result, *scale(self._marks))
