"""Process-wide telemetry state: flags, named counters/gauges, sinks.

Performance contract (held by ``benchmarks/bench_telemetry.py``): with
telemetry disabled, an instrumentation point costs at most one attribute
lookup — engine code guards every counter event with
``if TELEMETRY.enabled:`` and :func:`repro.telemetry.spans.span` returns
a shared no-op object when span recording is off.  Nothing is allocated
and no lock is touched on the disabled path.

Counter updates are lock-protected, so totals are exact under
concurrent threads; span stacks are thread-local, so each thread grows
its own trace tree.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Mapping

from .histogram import Histogram

if TYPE_CHECKING:  # pragma: no cover
    from .sinks import Sink
    from .spans import Span

__all__ = [
    "TELEMETRY",
    "TelemetryState",
    "MetricsProbe",
    "counter_delta",
]


class TelemetryState:
    """The process-wide telemetry singleton (:data:`TELEMETRY`).

    ``enabled`` gates counters and gauges; ``spans`` additionally gates
    span creation.  Counters-only mode (``enable(spans=False)``) is what
    the benchmark harness uses: operation counts without the span
    bookkeeping showing up in timings.
    """

    __slots__ = ("enabled", "spans", "counters", "gauges", "histograms",
                 "sinks", "_lock", "_local")

    def __init__(self) -> None:
        self.enabled = False
        self.spans = False
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.sinks: list["Sink"] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- configuration ------------------------------------------------

    def enable(self, *sinks: "Sink", spans: bool = True) -> None:
        """Start recording; ``sinks`` receive closed spans and, at
        :meth:`disable` time, the final counter snapshot."""
        with self._lock:
            self.sinks.extend(sinks)
            self.spans = spans
            self.enabled = True

    def disable(self) -> None:
        """Stop recording, flush the counter and histogram snapshots to
        every sink and detach them.  Values survive until :meth:`reset`
        so they can still be inspected afterwards."""
        with self._lock:
            sinks, self.sinks = list(self.sinks), []
            self.enabled = False
            self.spans = False
            counters = dict(self.counters)
            gauges = dict(self.gauges)
            histograms = {
                name: hist.copy() for name, hist in self.histograms.items()
            }
        for sink in sinks:
            sink.on_counters(counters, gauges)
            if histograms:
                sink.on_histograms(histograms)
            sink.close()

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()

    # -- events -------------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the named histogram.

        Engine hot paths guard the call with ``if TELEMETRY.enabled:``
        (one attribute lookup when off, like counters); the enabled
        path is one bucket increment under the shared lock."""
        if not self.enabled:
            return
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.observe(value)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self.counters)

    def gauge_snapshot(self) -> dict[str, float]:
        with self._lock:
            return dict(self.gauges)

    def histogram_snapshot(self) -> dict[str, Histogram]:
        """Deep-copied histogram state (safe to keep across later
        observations)."""
        with self._lock:
            return {
                name: hist.copy() for name, hist in self.histograms.items()
            }

    # -- span support (used by repro.telemetry.spans) -----------------

    @property
    def stack(self) -> list["Span"]:
        """The current thread's open-span stack."""
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def emit_span(self, span: "Span") -> None:
        for sink in self.sinks:
            sink.on_span(span)


TELEMETRY = TelemetryState()


def counter_delta(
    before: Mapping[str, int], after: Mapping[str, int]
) -> dict[str, int]:
    """Counters that moved between two snapshots (zero deltas omitted)."""
    delta: dict[str, int] = {}
    for name, value in after.items():
        diff = value - before.get(name, 0)
        if diff:
            delta[name] = diff
    return delta


class MetricsProbe:
    """Capture the counter delta across a region of code.

    Engines construct one at entry and attach ``probe.delta()`` to their
    result objects (``ChaseResult.metrics``, ``RewriteResult.metrics``).
    Costs nothing when telemetry is disabled: no snapshot is taken and
    ``delta()`` returns an empty dict.
    """

    __slots__ = ("_base",)

    def __init__(self) -> None:
        self._base = TELEMETRY.snapshot() if TELEMETRY.enabled else None

    def delta(self) -> dict[str, int]:
        if self._base is None or not TELEMETRY.enabled:
            return {}
        return counter_delta(self._base, TELEMETRY.snapshot())
