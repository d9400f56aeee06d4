"""Schema-versioned run reports: one JSON artifact per engine run.

A :class:`RunReport` freezes everything observability knows about a run
into a deterministic, diff-able JSON document:

* ``config`` — what was asked for (command, variant/certificate
  choices, budgets);
* ``counters`` / ``gauges`` — exact operation totals;
* ``histograms`` — distribution snapshots (fixed log buckets, see
  :mod:`repro.telemetry.histogram`) with p50/p90/p99 summaries;
* ``span_digest`` — the span tree aggregated by path: for every
  ``parent/child`` name path, how many spans closed there and their
  total inclusive duration.  A digest, not the raw tree: the raw tree
  of a rewrite run holds thousands of spans; the digest is stable,
  small, and still pins the *shape* of the run (a plan regression that
  doubles ``search/entails/chase`` spans is visible immediately).

Serialization is deterministic (sorted keys everywhere); two reports
built from the same telemetry state are byte-identical.  The schema is
versioned under ``"schema"`` so trajectory tooling can evolve the
format without silently misreading old artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from .core import TELEMETRY
from .histogram import Histogram
from .sinks import MemorySink
from .spans import Span

__all__ = [
    "RUN_REPORT_SCHEMA",
    "RunReport",
    "build_run_report",
    "span_digest",
]

RUN_REPORT_SCHEMA = "repro/run-report@1"


def span_digest(roots: Iterable[Span]) -> tuple[dict[str, Any], ...]:
    """Aggregate a span forest by name path (``"a/b/c"``), sorted by
    path for deterministic output."""
    digest: dict[str, dict[str, Any]] = {}

    def visit(span: Span, prefix: str) -> None:
        path = f"{prefix}/{span.name}" if prefix else span.name
        agg = digest.setdefault(
            path, {"path": path, "count": 0, "total_seconds": 0.0, "errors": 0}
        )
        agg["count"] += 1
        agg["total_seconds"] += span.duration
        if span.status == "error":
            agg["errors"] += 1
        for child in span.children:
            visit(child, path)

    for root in roots:
        visit(root, "")
    return tuple(digest[path] for path in sorted(digest))


@dataclass(frozen=True)
class RunReport:
    """The frozen observability artifact of one run."""

    command: str
    config: Mapping[str, Any]
    counters: Mapping[str, int]
    gauges: Mapping[str, float] = field(default_factory=dict)
    histograms: Mapping[str, Histogram] = field(default_factory=dict)
    spans: tuple[dict[str, Any], ...] = ()
    schema: str = RUN_REPORT_SCHEMA

    def summary(self) -> dict[str, Any]:
        """Headline numbers: totals plus per-histogram percentiles."""
        return {
            name: {
                "count": hist.count,
                "mean": hist.mean,
                "p50": hist.quantile(0.5),
                "p90": hist.quantile(0.9),
                "p99": hist.quantile(0.99),
                "max": None if hist.max is None else float(hist.max),
            }
            for name, hist in sorted(self.histograms.items())
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "command": self.command,
            "config": dict(self.config),
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: hist.to_dict()
                for name, hist in sorted(self.histograms.items())
            },
            "histogram_summary": self.summary(),
            "span_digest": list(self.spans),
        }

    def to_json(self) -> str:
        return json.dumps(
            self.to_dict(), sort_keys=True, indent=2, default=str
        )

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunReport":
        schema = data.get("schema")
        if schema != RUN_REPORT_SCHEMA:
            raise ValueError(
                f"unsupported run-report schema {schema!r} "
                f"(expected {RUN_REPORT_SCHEMA!r})"
            )
        return cls(
            command=str(data.get("command", "")),
            config=dict(data.get("config", {})),
            counters={
                str(k): int(v) for k, v in data.get("counters", {}).items()
            },
            gauges={
                str(k): float(v) for k, v in data.get("gauges", {}).items()
            },
            histograms={
                str(k): Histogram.from_dict(v)
                for k, v in data.get("histograms", {}).items()
            },
            spans=tuple(data.get("span_digest", ())),
            schema=str(schema),
        )

    @classmethod
    def load(cls, path: str | Path) -> "RunReport":
        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


def build_run_report(
    command: str,
    config: Mapping[str, Any] | None = None,
    *,
    sink: MemorySink | None = None,
    counters: Mapping[str, int] | None = None,
    histograms: Mapping[str, Histogram] | None = None,
) -> RunReport:
    """Assemble a report from live telemetry state (and, when given, a
    :class:`MemorySink`'s span forest).

    Costs nothing of note when telemetry is disabled: the snapshots are
    empty dictionaries.  Explicit ``counters``/``histograms`` override
    the live snapshots — result objects pass their own deltas."""
    if counters is None:
        counters = TELEMETRY.snapshot()
    if histograms is None:
        histograms = TELEMETRY.histogram_snapshot()
    gauges = TELEMETRY.gauge_snapshot()
    roots: list[Span] = list(sink.roots) if sink is not None else []
    return RunReport(
        command=command,
        config=dict(config or {}),
        counters=dict(counters),
        gauges=gauges,
        histograms=dict(histograms),
        spans=span_digest(roots),
    )
