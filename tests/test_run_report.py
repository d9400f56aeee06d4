"""RunReport artifacts (`repro.telemetry.report`).

The contract: a schema-versioned, deterministic JSON document built
from telemetry state, attachable to `ChaseResult` / `RewriteResult`,
emitted by the CLI's ``--report FILE``.
"""

from __future__ import annotations

import json

import pytest

from repro import Schema, parse_tgds
from repro.chase import chase
from repro.dependencies import TGDClass
from repro.instances import Instance
from repro.lang import parse_facts
from repro.rewriting import rewrite
from repro.telemetry import (
    RUN_REPORT_SCHEMA,
    TELEMETRY,
    MemorySink,
    RunReport,
    build_run_report,
    span,
    span_digest,
)

UNARY3 = Schema.of(("R", 1), ("P", 1), ("T", 1))


@pytest.fixture(autouse=True)
def clean_telemetry():
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


def _instance(schema, text):
    return Instance.from_facts(schema, parse_facts(text))


class TestSpanDigest:
    def test_aggregates_by_path(self):
        TELEMETRY.enable(sink := MemorySink())
        with span("outer"):
            with span("inner"):
                pass
            with span("inner"):
                pass
        TELEMETRY.disable()
        digest = span_digest(sink.roots)
        paths = {entry["path"]: entry for entry in digest}
        assert set(paths) == {"outer", "outer/inner"}
        assert paths["outer"]["count"] == 1
        assert paths["outer/inner"]["count"] == 2
        assert paths["outer/inner"]["errors"] == 0

    def test_counts_errors(self):
        TELEMETRY.enable(sink := MemorySink())
        with pytest.raises(RuntimeError):
            with span("work"):
                raise RuntimeError("boom")
        TELEMETRY.disable()
        digest = span_digest(sink.roots)
        assert digest[0]["errors"] == 1

    def test_digest_is_sorted_and_deterministic(self):
        TELEMETRY.enable(sink := MemorySink())
        with span("b"):
            pass
        with span("a"):
            pass
        TELEMETRY.disable()
        digest = span_digest(sink.roots)
        assert [entry["path"] for entry in digest] == ["a", "b"]


class TestRunReport:
    def test_build_and_round_trip(self):
        TELEMETRY.enable(sink := MemorySink())
        with span("work"):
            TELEMETRY.count("ops", 3)
            TELEMETRY.observe("fanout", 5.0)
        TELEMETRY.disable()
        report = build_run_report("demo", {"jobs": 1}, sink=sink)
        assert report.schema == RUN_REPORT_SCHEMA
        assert report.counters["ops"] == 3
        assert report.histograms["fanout"].count == 1
        data = json.loads(report.to_json())
        assert data["schema"] == RUN_REPORT_SCHEMA
        assert data["config"] == {"jobs": 1}
        back = RunReport.from_dict(data)
        assert back.to_json() == report.to_json()

    def test_serialization_is_deterministic(self):
        TELEMETRY.enable(spans=False)
        TELEMETRY.count("b", 1)
        TELEMETRY.count("a", 2)
        TELEMETRY.observe("h", 1.0)
        TELEMETRY.disable()
        one = build_run_report("demo", {}).to_json()
        two = build_run_report("demo", {}).to_json()
        assert one == two

    def test_summary_has_percentiles(self):
        TELEMETRY.enable(spans=False)
        for v in range(1, 11):
            TELEMETRY.observe("h", float(v))
        TELEMETRY.disable()
        report = build_run_report("demo", {})
        summary = report.summary()["h"]
        assert summary["count"] == 10
        assert summary["p50"] <= summary["p90"] <= summary["p99"]
        assert summary["max"] == 10.0

    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            RunReport.from_dict({"schema": "something-else"})

    def test_write_and_load(self, tmp_path):
        report = build_run_report("demo", {"x": 1})
        path = tmp_path / "report.json"
        report.write(path)
        assert RunReport.load(path).to_json() == report.to_json()

    def test_empty_when_telemetry_disabled(self):
        report = build_run_report("demo", {})
        assert report.counters == {}
        assert report.histograms == {}
        assert report.spans == ()


class TestResultAttachment:
    def test_chase_result_carries_config_and_report(self):
        deps = parse_tgds("R(x) -> P(x)", UNARY3)
        db = _instance(UNARY3, "R(a).")
        TELEMETRY.enable(spans=False)
        result = chase(db, deps)
        TELEMETRY.disable()
        assert result.config["engine"] == "chase"
        assert result.config["variant"] == "restricted"
        assert result.config["strategy"] == "seminaive"
        assert result.config["order"] == "static"
        report = result.run_report()
        assert report.command == "chase"
        assert report.config["strategy"] == "seminaive"
        assert report.counters.get("chase.rounds", 0) >= 1
        # per-round trigger histogram rides along
        assert "chase.round_triggers" in report.histograms

    def test_rewrite_result_report(self):
        sigma = list(parse_tgds("R(x) -> P(x)", UNARY3))
        TELEMETRY.enable(spans=False)
        result = rewrite(sigma, TGDClass.LINEAR, schema=UNARY3)
        TELEMETRY.disable()
        report = result.run_report()
        assert report.command == "rewrite"
        assert report.config["target_class"] == str(TGDClass.LINEAR)
        assert report.config["status"] == result.status
        assert report.counters == dict(result.metrics)

    def test_reports_work_without_telemetry(self):
        deps = parse_tgds("R(x) -> P(x)", UNARY3)
        db = _instance(UNARY3, "R(a).")
        result = chase(db, deps)
        report = result.run_report()
        assert report.counters == {}
        assert json.loads(report.to_json())["schema"] == RUN_REPORT_SCHEMA
