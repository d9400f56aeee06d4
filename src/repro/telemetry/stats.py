"""Offline analysis of JSONL trace files (``python -m repro stats``).

A trace file (written by :class:`~repro.telemetry.sinks.JSONLSink`)
interleaves ``span`` events with ``counters`` and ``histograms``
records; a single file may hold several runs' worth of each.
:func:`summarize_jsonl` aggregates spans by name — count, total
(inclusive), *self* (exclusive of children), mean, max — sums every
counter record, merges histogram records (exact: fixed buckets), and
produces the report the CLI prints.

Self time is recovered from the flat event stream without rebuilding
trees: spans are emitted in postorder (children before parents, each
child at ``depth + 1``), so when a span at depth ``d`` arrives, the
accumulated durations waiting at depth ``d + 1`` are exactly its
children's.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

from .histogram import Histogram
from .render import format_observation, format_seconds

__all__ = ["load_events", "summarize_events", "summarize_jsonl"]


def load_events(path: str | Path) -> Iterator[dict[str, Any]]:
    """Parse a JSONL trace file, skipping blank lines.

    Raises ``ValueError`` with the offending line number on malformed
    JSON, a line that is not a JSON object, or a ``counters`` /
    ``gauges`` / ``histograms`` field that is not a map, so a truncated
    or foreign file is reported rather than half-read."""
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not valid JSONL ({exc.msg})"
                ) from exc
            if not isinstance(event, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object")
            for field in ("counters", "gauges", "histograms"):
                if not isinstance(event.get(field, {}), dict):
                    raise ValueError(
                        f"{path}:{lineno}: {field!r} is not a map"
                    )
            yield event


def summarize_events(events: Iterator[dict[str, Any]]) -> str:
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, Histogram] = {}
    span_events = 0
    counter_records = 0
    errors = 0
    # Durations of completed spans per depth, awaiting their parent
    # (the postorder trick described in the module docstring).
    pending_child_time: dict[int, float] = {}
    for event in events:
        kind = event.get("type")
        if kind == "span":
            span_events += 1
            name = event.get("name", "?")
            duration = float(event.get("duration", 0.0))
            depth = int(event.get("depth", 0))
            child_time = pending_child_time.pop(depth + 1, 0.0)
            pending_child_time[depth] = (
                pending_child_time.get(depth, 0.0) + duration
            )
            agg = spans.setdefault(
                name, {"count": 0, "total": 0.0, "self": 0.0, "max": 0.0}
            )
            agg["count"] += 1
            agg["total"] += duration
            agg["self"] += max(duration - child_time, 0.0)
            agg["max"] = max(agg["max"], duration)
            if event.get("status") == "error":
                errors += 1
        elif kind == "counters":
            counter_records += 1
            for name, value in event.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + int(value)
            gauges.update(event.get("gauges", {}))
        elif kind == "histograms":
            for name, data in event.get("histograms", {}).items():
                recorded = Histogram.from_dict(data)
                known = histograms.get(name)
                if known is None:
                    histograms[name] = recorded
                else:
                    known.merge(recorded)

    lines = [
        f"trace: {span_events} span events, "
        f"{counter_records} counter records"
        + (f", {len(histograms)} histograms" if histograms else "")
        + (f", {errors} errored spans" if errors else "")
    ]
    if spans:
        lines.append("")
        lines.append(
            f"  {'span':<34} {'count':>7} {'total':>10} "
            f"{'self':>10} {'mean':>10} {'max':>10}"
        )
        for name, agg in sorted(
            spans.items(), key=lambda kv: -kv[1]["total"]
        ):
            count = int(agg["count"])
            lines.append(
                f"  {name:<34} {count:>7} "
                f"{format_seconds(agg['total']):>10} "
                f"{format_seconds(agg['self']):>10} "
                f"{format_seconds(agg['total'] / count):>10} "
                f"{format_seconds(agg['max']):>10}"
            )
    if counters or gauges:
        lines.append("")
        lines.append(f"  {'counter':<42} {'value':>12}")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<42} {value:>12}")
        for name, value in sorted(gauges.items()):
            lines.append(f"  {name:<42} {value:>12g}")
    cache_section = _plan_cache_section(counters)
    if cache_section:
        lines.append("")
        lines.extend(cache_section)
    if histograms:
        lines.append("")
        lines.append(
            f"  {'histogram':<34} {'count':>8} {'p50':>9} "
            f"{'p90':>9} {'p99':>9} {'max':>9}"
        )
        for name, hist in sorted(histograms.items()):
            maximum = hist.max if hist.max is not None else 0.0
            lines.append(
                f"  {name:<34} {hist.count:>8} "
                f"{format_observation(name, hist.quantile(0.5)):>9} "
                f"{format_observation(name, hist.quantile(0.9)):>9} "
                f"{format_observation(name, hist.quantile(0.99)):>9} "
                f"{format_observation(name, maximum):>9}"
            )
    return "\n".join(lines)


def _plan_cache_section(counters: dict[str, int]) -> list[str]:
    """Derived plan-cache health figures, from trace counters alone.

    The cache itself is process-local and long gone when a trace is
    analyzed offline, but its life story is fully determined by the
    ``hom.plan_*`` counters: every compile inserted one entry and every
    eviction removed one, so occupancy is their difference, and the hit
    ratio is hits over total lookups (hits + compiles)."""
    hits = counters.get("hom.plan_hits", 0)
    compiles = counters.get("hom.plan_compiles", 0)
    evictions = counters.get("hom.plan_evictions", 0)
    lookups = hits + compiles
    if not lookups and not evictions:
        return []
    lines = [f"  {'plan cache':<42} {'value':>12}"]
    lines.append(f"  {'occupancy (compiles - evictions)':<42} "
                 f"{compiles - evictions:>12}")
    lines.append(f"  {'lookups':<42} {lookups:>12}")
    if lookups:
        lines.append(f"  {'hit ratio':<42} {hits / lookups:>12.1%}")
        lines.append(f"  {'compile ratio':<42} {compiles / lookups:>12.1%}")
        lines.append(f"  {'eviction ratio':<42} {evictions / lookups:>12.1%}")
    return lines


def summarize_jsonl(path: str | Path) -> str:
    """Summarize a trace file written via ``--trace FILE.jsonl``."""
    return summarize_events(load_events(path))
