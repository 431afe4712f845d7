"""Scaling timings to a reference host speed.

The host's speed drifts: on the shared 2-CPU host where this benchmark was
written, the same loop of library calls ran at two speeds a factor of two
apart, each lasting from seconds to over half a minute.  A timing is
therefore scaled by the speed of `reference_loop` measured around and
during it: the result is the time on a host where the reference loop takes
REFERENCE_S.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

# reference_loop's time on the fast phase of the writing host, so scaled
# timings read as seconds on that host
REFERENCE_S = 0.00033
PROBE_EVERY_S = 0.05


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that calls no library code."""
    start = perf_counter()
    total, table, letters = 0, {}, []
    for i in range(1, 1500):
        total += i * i % 7
        table[i & 63] = str(i)
        letters.append("ab"[i & 1])
    "".join(letters)
    return perf_counter() - start


def reference() -> float:
    """The best of three reference times: the first run after other code
    finds the caches cold."""
    return min(reference_loop() for _ in range(3))


def scale(refs) -> float:
    """Factor that turns a timing into reference-host time, given the
    reference times taken around and during it (the mean speed they show)."""
    return REFERENCE_S * sum(1 / r for r in refs) / len(refs)


class Probe:
    """Takes a reference time every PROBE_EVERY_S from an interval timer, so
    that the host's speed is known also in the middle of a long call.

    A caller subtracts from a timed call the time `paused()` advanced by
    during it: the time spent probing.
    """

    def __init__(self):
        self.at = array("d")
        self.refs = array("d")
        self._paused = 0.0

    def paused(self) -> float:
        return self._paused

    def _probe(self, signum=None, frame=None) -> None:
        start = perf_counter()
        self.refs.append(reference())
        self.at.append(start)
        self._paused += perf_counter() - start

    def __enter__(self) -> "Probe":
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def scale(self, start: float, end: float) -> float:
        """scale() for a call from start to end: the probes during it and
        the last one before and the first one after it."""
        lo = max(bisect_right(self.at, start) - 1, 0)
        hi = bisect_left(self.at, end) + 1
        return scale(self.refs[lo:hi])
