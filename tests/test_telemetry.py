"""Unit and integration tests for `repro.telemetry`.

Covers spans (nesting, exceptions, attribute capture), counters
(reset / snapshot / thread-safety), sinks (JSONL round-trip), the
engine integration (a chase over the §9.1 witness emits the expected
trigger/null counts; ChaseResult/RewriteResult metrics snapshots;
stop_reason), and the disabled-path overhead contract.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro import Instance, Schema, StopReason, chase, parse_tgds
from repro.homomorphisms import all_extensions_of
from repro.lang import parse_atoms, parse_egd
from repro.rewriting import guarded_to_linear
from repro.telemetry import (
    TELEMETRY,
    JSONLSink,
    MemorySink,
    MetricsProbe,
    counter_delta,
    render_report,
    render_tree,
    span,
    summarize_jsonl,
)
from repro.telemetry.spans import _NOOP
from tests.oracles import interpreted as oracle


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends with telemetry off and zeroed."""
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


class TestSpans:
    def test_nesting_builds_a_tree(self):
        sink = MemorySink()
        TELEMETRY.enable(sink)
        with span("outer", job=1):
            with span("inner.a"):
                pass
            with span("inner.b"):
                with span("leaf"):
                    pass
        TELEMETRY.disable()
        assert [s.name for s in sink.roots] == ["outer"]
        (outer,) = sink.roots
        assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]
        assert outer.depth == 0
        assert outer.children[1].children[0].depth == 2
        # Children close before parents; every span is reported once.
        assert [s.name for s in sink.spans] == [
            "inner.a", "leaf", "inner.b", "outer"
        ]

    def test_durations_are_measured(self):
        sink = MemorySink()
        TELEMETRY.enable(sink)
        with span("outer"):
            with span("inner"):
                time.sleep(0.01)
        TELEMETRY.disable()
        (outer,) = sink.roots
        (inner,) = outer.children
        assert inner.duration >= 0.009
        assert outer.duration >= inner.duration

    def test_exception_inside_span_is_recorded_and_propagates(self):
        sink = MemorySink()
        TELEMETRY.enable(sink)
        with pytest.raises(ValueError, match="boom"):
            with span("outer"):
                with span("failing"):
                    raise ValueError("boom")
        TELEMETRY.disable()
        failing, outer = sink.spans
        assert failing.name == "failing"
        assert failing.status == "error"
        assert failing.error == "ValueError: boom"
        assert outer.status == "error"
        # The stack unwound correctly: a new root opens at depth 0.
        TELEMETRY.enable(sink)
        with span("after") as after:
            pass
        TELEMETRY.disable()
        assert after.depth == 0

    def test_attribute_capture(self):
        sink = MemorySink()
        TELEMETRY.enable(sink)
        with span("work", phase="search", size=3) as sp:
            sp.set(status="done")
        TELEMETRY.disable()
        (root,) = sink.roots
        assert root.attributes == {
            "phase": "search", "size": 3, "status": "done"
        }

    def test_disabled_span_is_the_shared_noop(self):
        sp = span("anything", k=1)
        assert sp is _NOOP
        assert sp.set(x=2) is sp
        with sp as inner:
            assert inner is sp


class TestCounters:
    def test_count_snapshot_reset(self):
        TELEMETRY.enable(spans=False)
        TELEMETRY.count("a")
        TELEMETRY.count("a", 4)
        TELEMETRY.count("b")
        TELEMETRY.gauge("g", 2.5)
        assert TELEMETRY.snapshot() == {"a": 5, "b": 1}
        assert TELEMETRY.gauge_snapshot() == {"g": 2.5}
        TELEMETRY.reset()
        assert TELEMETRY.snapshot() == {}
        assert TELEMETRY.gauge_snapshot() == {}

    def test_disabled_count_is_a_noop(self):
        TELEMETRY.count("never")
        assert TELEMETRY.snapshot() == {}

    def test_thread_safety_exact_totals(self):
        TELEMETRY.enable(spans=False)
        per_thread, threads = 10_000, 8

        def worker():
            for _ in range(per_thread):
                TELEMETRY.count("shared")

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert TELEMETRY.snapshot()["shared"] == per_thread * threads

    def test_counter_delta(self):
        before = {"a": 2, "b": 1}
        after = {"a": 5, "b": 1, "c": 7}
        assert counter_delta(before, after) == {"a": 3, "c": 7}

    def test_metrics_probe_disabled_is_empty(self):
        probe = MetricsProbe()
        assert probe.delta() == {}

    def test_metrics_probe_enabled_tracks_delta(self):
        TELEMETRY.enable(spans=False)
        TELEMETRY.count("x", 10)
        probe = MetricsProbe()
        TELEMETRY.count("x", 3)
        TELEMETRY.count("y")
        assert probe.delta() == {"x": 3, "y": 1}


class TestSinks:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        TELEMETRY.enable(JSONLSink(str(path)))
        with span("outer", label="run"):
            with span("inner"):
                pass
        TELEMETRY.count("events", 3)
        TELEMETRY.gauge("load", 0.5)
        TELEMETRY.disable()

        lines = path.read_text().strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert [e["type"] for e in events] == ["span", "span", "counters"]
        inner, outer, counters = events
        assert inner["name"] == "inner" and inner["depth"] == 1
        assert outer["name"] == "outer" and outer["depth"] == 0
        assert outer["attrs"] == {"label": "run"}
        assert outer["status"] == "ok"
        assert outer["duration"] >= 0.0
        assert counters["counters"] == {"events": 3}
        assert counters["gauges"] == {"load": 0.5}

        summary = summarize_jsonl(path)
        assert "outer" in summary and "inner" in summary
        assert "events" in summary and "load" in summary

    def test_jsonl_stringifies_non_json_attributes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        TELEMETRY.enable(JSONLSink(str(path)))
        with span("typed", cls=Schema.of(("R", 1))):
            pass
        TELEMETRY.disable()
        (event, _counters) = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert isinstance(event["attrs"]["cls"], str)

    def test_stats_rejects_malformed_jsonl(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            summarize_jsonl(path)

    def test_histograms_flush_to_sinks(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        memory = MemorySink()
        TELEMETRY.enable(memory, JSONLSink(str(path)), spans=False)
        TELEMETRY.observe("fanout", 4.0)
        TELEMETRY.observe("fanout", 16.0)
        TELEMETRY.disable()
        assert memory.histograms["fanout"].count == 2
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        (record,) = [e for e in events if e["type"] == "histograms"]
        assert record["histograms"]["fanout"]["count"] == 2

    def test_jsonl_close_is_idempotent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JSONLSink(str(path))
        TELEMETRY.enable(sink)
        with span("work"):
            pass
        TELEMETRY.disable()  # closes the sink
        sink.close()  # a second close (CLI finally) must be harmless
        sink.on_span  # the object is still usable as a dead letter:
        sink.on_counters({"late": 1}, {})  # silently dropped, no crash
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert [e["type"] for e in events] == ["span", "counters"]

    def test_stats_self_time_excludes_children(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        TELEMETRY.enable(JSONLSink(str(path)))
        with span("parent"):
            with span("child"):
                time.sleep(0.02)
        TELEMETRY.disable()
        summary = summarize_jsonl(path)
        rows = {
            line.split()[0]: line.split()
            for line in summary.splitlines()
            if line.strip().startswith(("parent", "child"))
        }
        # columns: name count total self mean max
        parent_total = rows["parent"][2]
        parent_self = rows["parent"][3]
        child_total = rows["child"][2]
        assert parent_total != parent_self
        assert child_total == rows["child"][3]  # leaf: self == total

        def _seconds(text):
            units = {"ns": 1e-9, "µs": 1e-6, "ms": 1e-3, "s": 1.0}
            for suffix, scale in units.items():
                if text.endswith(suffix):
                    return float(text[: -len(suffix)]) * scale
            return float(text)

        assert _seconds(parent_self) < _seconds(parent_total) / 2

    def test_stats_merges_histogram_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for _ in range(2):  # two runs appended to one file
                TELEMETRY.enable(JSONLSink(handle), spans=False)
                TELEMETRY.observe("fanout", 4.0)
                TELEMETRY.disable()
                TELEMETRY.reset()
        summary = summarize_jsonl(path)
        assert "fanout" in summary
        (row,) = [
            line for line in summary.splitlines() if "fanout" in line
        ]
        assert row.split()[1] == "2"  # merged count across records

    def test_render_report_empty(self):
        assert "nothing recorded" in render_report(MemorySink())

    def test_render_tree_aggregates_repeats(self):
        sink = MemorySink()
        TELEMETRY.enable(sink)
        for index in range(3):
            with span("repeat", index=index):
                pass
        TELEMETRY.disable()
        rendered = render_tree(sink.roots)
        assert "repeat ×3" in rendered
        assert "index" not in rendered  # attrs hidden on collapsed lines


SCHEMA_91 = Schema.of(("R", 1), ("P", 1), ("T", 1))


class TestEngineIntegration:
    def test_chase_91_witness_counts(self):
        """Σ_G over I = {R(c), P(c)}: exactly one trigger, no nulls."""
        sigma = parse_tgds("R(x), P(x) -> T(x)", SCHEMA_91)
        db = Instance.parse("R(c). P(c)", SCHEMA_91)
        TELEMETRY.enable(spans=False)
        result = chase(db, sigma)
        counters = TELEMETRY.snapshot()
        TELEMETRY.disable()
        assert result.successful
        assert counters["chase.triggers_fired"] == 1
        assert counters["chase.facts_added"] == 1
        assert "chase.nulls_created" not in counters
        assert counters["chase.rounds"] == 2  # fire, then fixpoint sweep
        assert result.metrics["chase.triggers_fired"] == 1
        assert result.metrics["hom.backtracks"] > 0

    def test_chase_null_invention_counts(self):
        sigma = parse_tgds("P(x) -> exists z . T(z)", SCHEMA_91)
        db = Instance.parse("P(a)", SCHEMA_91)
        TELEMETRY.enable(spans=False)
        result = chase(db, sigma)
        counters = TELEMETRY.snapshot()
        TELEMETRY.disable()
        assert counters["chase.nulls_created"] == 1
        assert result.metrics["chase.nulls_created"] == 1

    def test_chase_metrics_empty_when_disabled(self):
        sigma = parse_tgds("R(x), P(x) -> T(x)", SCHEMA_91)
        db = Instance.parse("R(c). P(c)", SCHEMA_91)
        result = chase(db, sigma)
        assert result.metrics == {}

    def test_rewrite_metrics_snapshot(self):
        sigma = parse_tgds("R(x) -> P(x)\nR(x), P(x) -> T(x)", SCHEMA_91)
        TELEMETRY.enable(spans=False)
        result = guarded_to_linear(sigma, schema=SCHEMA_91)
        TELEMETRY.disable()
        assert result.succeeded
        assert result.metrics["rewrite.candidates_considered"] > 0
        assert result.metrics["enumeration.candidates"] > 0
        assert result.metrics["entailment.calls"] > 0
        assert result.metrics["hom.backtracks"] > 0
        assert result.metrics["chase.triggers_fired"] > 0

    def test_egd_merge_counter(self):
        schema = Schema.of(("E", 2), ("P", 1), ("Q", 1))
        # Round 1 invents a null for z and adds E(a, a); round 2 merges
        # the null into the constant a — a merge, not a failure.
        rules = parse_tgds(
            "P(x) -> exists z . E(x, z)\nQ(x) -> E(x, x)", schema
        ) + (parse_egd("E(x, y), E(x, w) -> y = w", schema),)
        db = Instance.parse("P(a). Q(a)", schema)
        TELEMETRY.enable(spans=False)
        result = chase(db, rules)
        counters = TELEMETRY.snapshot()
        TELEMETRY.disable()
        assert result.successful
        assert counters["chase.egd_merges"] >= 1


class TestHomIndexProbes:
    """``hom.index_probes`` counts buckets actually consulted — one per
    bound position probed, stopping at the first empty bucket — rather
    than once per atom."""

    SCHEMA = Schema.of(("E", 2))

    def _run(self, matcher, atoms_text, partial=None):
        db = Instance.parse("E(a, b). E(a, c). E(b, c)", self.SCHEMA)
        atoms = parse_atoms(atoms_text, self.SCHEMA)
        search = (
            oracle.all_extensions_of if matcher == "interpreted"
            else all_extensions_of
        )
        TELEMETRY.enable(spans=False)
        matches = list(search(atoms, db, partial))
        counters = TELEMETRY.snapshot()
        TELEMETRY.disable()
        TELEMETRY.reset()
        return matches, counters

    def test_interpreted_counts_per_bucket(self):
        # E(x, y) is unbound (0 probes); E(y, z) probes position 0 once
        # per candidate of the first atom: y=b (non-empty), y=c (empty,
        # counted, then early exit), y=c again — 3 probes total.
        matches, counters = self._run("interpreted", "E(x, y), E(y, z)")
        assert len(matches) == 1
        assert counters["hom.index_probes"] == 3
        assert "hom.forward_prunes" not in counters

    def test_compiled_prunes_replace_probes(self):
        # The compiled plan forward-checks y against E's position-0
        # index right after binding it: the two dead candidates are
        # pruned (2 forward_prunes) and only the surviving branch
        # probes its bucket at the next step (1 probe).
        matches, counters = self._run("compiled", "E(x, y), E(y, z)")
        assert len(matches) == 1
        assert counters["hom.index_probes"] == 1
        assert counters["hom.forward_prunes"] == 2

    def test_paths_agree_on_matches_and_backtracks(self):
        interp, ci = self._run("interpreted", "E(x, y), E(y, z)")
        comp, cc = self._run("compiled", "E(x, y), E(y, z)")
        assert interp == comp
        assert ci["hom.matches"] == cc["hom.matches"] == 1
        assert ci["hom.backtracks"] == cc["hom.backtracks"]

    def test_fully_bound_atom_is_a_membership_test(self):
        from repro.lang import Const, Var

        partial = {Var("x"): Const("a"), Var("y"): Const("b")}
        for matcher in ("interpreted", "compiled"):
            matches, counters = self._run(matcher, "E(x, y)", partial)
            assert len(matches) == 1
            assert "hom.index_probes" not in counters

    def test_compiled_run_touches_the_plan_cache(self):
        __, counters = self._run("compiled", "E(x, y), E(y, z)")
        assert (
            counters.get("hom.plan_hits", 0)
            + counters.get("hom.plan_compiles", 0)
        ) == 1


class TestStopReason:
    def test_fixpoint(self):
        sigma = parse_tgds("R(x) -> P(x)", SCHEMA_91)
        result = chase(Instance.parse("R(a)", SCHEMA_91), sigma)
        assert result.stop_reason == StopReason.FIXPOINT
        assert result.terminated and not result.failed

    def test_round_budget(self):
        schema = Schema.of(("E", 2), ("P", 1))
        sigma = parse_tgds(
            "P(x) -> exists z . E(x, z)\nE(x, z) -> P(z)", schema
        )
        result = chase(Instance.parse("P(a)", schema), sigma, max_rounds=3)
        assert result.stop_reason == StopReason.ROUND_BUDGET
        assert not result.terminated

    def test_fact_budget(self):
        schema = Schema.of(("E", 2), ("P", 1))
        sigma = parse_tgds(
            "P(x) -> exists z . E(x, z)\nE(x, z) -> P(z)", schema
        )
        result = chase(Instance.parse("P(a)", schema), sigma, max_facts=4)
        assert result.stop_reason == StopReason.FACT_BUDGET
        assert not result.terminated
        # The bare flags cannot tell the two budgets apart — that was
        # the bug; stop_reason can.
        budget = chase(Instance.parse("P(a)", schema), sigma, max_rounds=3)
        assert (result.terminated, result.failed) == (
            budget.terminated, budget.failed
        )
        assert result.stop_reason != budget.stop_reason

    def test_egd_failure(self):
        schema = Schema.of(("E", 2),)
        rules = (parse_egd("E(x, y), E(x, w) -> y = w", schema),)
        result = chase(Instance.parse("E(a, b). E(a, c)", schema), rules)
        # b and c are constants: the chase must fail.
        assert result.failed
        assert result.stop_reason == StopReason.EGD_FAILURE

    def test_denial_violation(self):
        sigma = parse_tgds("R(x) -> P(x)", SCHEMA_91) + tuple(
            [d for d in []]
        )
        from repro.lang import parse_dependency

        dc = parse_dependency("R(x), P(x) -> false")
        result = chase(
            Instance.parse("R(a)", SCHEMA_91), (sigma[0], dc)
        )
        assert result.failed
        assert result.stop_reason == StopReason.DENIAL_VIOLATION

    def test_inference_for_legacy_constructions(self):
        from repro.chase.engine import ChaseResult

        db = Instance.parse("R(a)", SCHEMA_91)
        legacy = ChaseResult(db, True, False, 1, 0, 0)
        assert legacy.stop_reason == StopReason.FIXPOINT
        assert ChaseResult(db, True, True, 1, 0, 0).stop_reason == (
            StopReason.EGD_FAILURE
        )
        assert ChaseResult(db, False, False, 1, 0, 0).stop_reason == (
            StopReason.ROUND_BUDGET
        )

    def test_traced_chase_stop_reasons(self):
        from repro.chase import traced_chase

        sigma = parse_tgds("R(x) -> P(x)", SCHEMA_91)
        traced = traced_chase(Instance.parse("R(a)", SCHEMA_91), sigma)
        assert traced.result.stop_reason == StopReason.FIXPOINT
        schema = Schema.of(("E", 2), ("P", 1))
        looping = parse_tgds(
            "P(x) -> exists z . E(x, z)\nE(x, z) -> P(z)", schema
        )
        budget = traced_chase(
            Instance.parse("P(a)", schema), looping, max_rounds=2
        )
        assert budget.result.stop_reason == StopReason.ROUND_BUDGET


class TestOverhead:
    def test_disabled_guard_overhead_smoke(self):
        """The no-op path must stay trivially cheap (CI smoke check;
        benchmarks/bench_telemetry.py quantifies it properly)."""
        events = 200_000
        t0 = time.perf_counter()
        for _ in range(events):
            if TELEMETRY.enabled:
                TELEMETRY.count("never")
        elapsed = time.perf_counter() - t0
        assert TELEMETRY.snapshot() == {}
        # ~40ns/event on a laptop; 2.5µs/event is an order-of-magnitude
        # cushion for slow CI machines.
        assert elapsed < events * 2.5e-6

    def test_disabled_span_allocates_nothing(self):
        first = span("a", x=1)
        second = span("b")
        assert first is second
