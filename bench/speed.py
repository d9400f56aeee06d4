"""Timing in reference seconds: wall time scaled by the machine's speed.

The benchmark's virtual machine shares its cores.  Its speed drifts:
the same pure-Python loop takes up to 1.8 times as long for stretches
of a fraction of a second to over a minute, with no steal time and
process CPU time moving with wall time.  Job times drift with it, but
the ratio of a job's time to a small reference loop's time measured
around it stays put (spread 7%, against 39% for the job time alone).

:class:`SpeedClock` therefore probes the machine's speed before an
interval, every ``INTERVAL_S`` during it (from a ``SIGALRM`` handler)
and after it, and reports the interval twice: in wall seconds, and in
*reference seconds*, each stretch between two probes scaled by
``REFERENCE_S`` over the mean of their probe times.  A reference second
is a second at the speed at which one probe takes ``REFERENCE_S``,
about this machine's speed when nothing else runs on it.  The probes'
own time counts in neither.

The probe touches nothing of the program: it runs with the cyclic
collector off, so it never walks the program's heap, and uses only a
small dict of its own.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

# One probe's time at reference speed, and the time between probes
# while an interval runs (about 3% of the interval goes to probes).
REFERENCE_S = 0.0012
INTERVAL_S = 0.05
PROBE_ROUNDS = 6000


def probe() -> float:
    """Seconds one run of the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    started = perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(PROBE_ROUNDS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    took = perf_counter() - started
    if enabled:
        gc.enable()
    return took


class SpeedClock:
    """Times one interval at a time: :meth:`start`, then :meth:`stop`
    returns ``(wall seconds, reference seconds)``.  Only the main thread
    of a process may use it (it owns ``SIGALRM``)."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        # (started, ended, probe time) of each probe of the interval.
        self._probes: list[tuple[float, float, float]] = []
        self._started = 0.0
        signal.signal(signal.SIGALRM, self._probe)

    def _probe(self, *__) -> None:
        started = perf_counter()
        took = probe()
        self._probes.append((started, perf_counter(), took))

    def start(self) -> None:
        self._probes = []
        self._probe()
        self._started = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def cancel(self) -> None:
        """Stop probing without reading the interval."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def stop(self) -> tuple[float, float]:
        self.cancel()
        ended = perf_counter()
        self._probe()
        before, *during, after = self._probes
        # A signal that arrived as the timer was stopped may have run
        # its probe after the interval ended.
        during = [p for p in during if p[0] < ended]
        wall = reference = 0.0
        left, speed = self._started, before[2]
        for started, finished, took in [*during, (ended, ended, after[2])]:
            stretch = started - left
            wall += stretch
            reference += stretch * 2 * REFERENCE_S / (speed + took)
            left, speed = finished, took
        return wall, reference
