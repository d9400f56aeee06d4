"""repro.telemetry — zero-dependency tracing spans, counters, and sinks.

The observability layer behind every engine in this repository: the
chase, homomorphism search, entailment, candidate enumeration, and the
rewriting algorithms all report *what they did* (triggers fired, nulls
created, backtracks, candidates considered, entailment calls) through
the process-wide :data:`TELEMETRY` singleton, and *where the time went*
through hierarchical :func:`span`\\ s.

Design rules:

* **Off by default, and nearly free when off.**  Every instrumentation
  point is guarded by a single attribute lookup
  (``TELEMETRY.enabled`` for counters, an equivalent check inside
  :func:`span`); nothing is allocated on the disabled path.
  ``benchmarks/bench_telemetry.py`` keeps this honest.
* **Pluggable sinks.**  :class:`MemorySink` collects span trees for the
  human-readable report (``--profile``); :class:`JSONLSink` streams
  events to a file (``--trace FILE.jsonl``) that
  ``python -m repro stats`` summarizes offline.
* **Exact counters.**  Increments are lock-protected, so concurrent
  threads never lose counts.

Typical use::

    from repro.telemetry import MemorySink, enable, disable, render_report

    sink = MemorySink()
    enable(sink)
    ...  # run chase / rewrite / entailment
    disable()
    print(render_report(sink))
"""

from .core import TELEMETRY, MetricsProbe, TelemetryState, counter_delta
from .histogram import Histogram
from .render import (
    format_observation,
    format_seconds,
    render_counters,
    render_histograms,
    render_report,
    render_tree,
)
from .report import RUN_REPORT_SCHEMA, RunReport, build_run_report, span_digest
from .sinks import JSONLSink, MemorySink, Sink
from .spans import Span, span
from .stats import load_events, summarize_events, summarize_jsonl
from .traceevent import ChromeTraceSink, trace_events_of

__all__ = [
    "TELEMETRY",
    "TelemetryState",
    "MetricsProbe",
    "counter_delta",
    "Histogram",
    "Span",
    "span",
    "count",
    "gauge",
    "observe",
    "enable",
    "disable",
    "reset",
    "enabled",
    "histogram_snapshot",
    "Sink",
    "MemorySink",
    "JSONLSink",
    "ChromeTraceSink",
    "trace_events_of",
    "render_tree",
    "render_counters",
    "render_histograms",
    "render_report",
    "format_observation",
    "format_seconds",
    "RUN_REPORT_SCHEMA",
    "RunReport",
    "build_run_report",
    "span_digest",
    "load_events",
    "summarize_events",
    "summarize_jsonl",
]


def enable(*sinks: Sink, spans: bool = True) -> None:
    """Start recording (module-level convenience for ``TELEMETRY.enable``)."""
    TELEMETRY.enable(*sinks, spans=spans)


def disable() -> None:
    """Stop recording and flush counters to the attached sinks."""
    TELEMETRY.disable()


def reset() -> None:
    """Clear all counters and gauges."""
    TELEMETRY.reset()


def enabled() -> bool:
    return TELEMETRY.enabled


def count(name: str, value: int = 1) -> None:
    """Increment a named counter (no-op while disabled)."""
    TELEMETRY.count(name, value)


def gauge(name: str, value: float) -> None:
    """Set a named gauge (no-op while disabled)."""
    TELEMETRY.gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record one histogram observation (no-op while disabled)."""
    TELEMETRY.observe(name, value)


def histogram_snapshot() -> dict[str, "Histogram"]:
    """A deep copy of the current histogram state."""
    return TELEMETRY.histogram_snapshot()
