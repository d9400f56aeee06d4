"""Streaming ingestion: fact-stream IO, batched ingest, bounded chases.

The contracts under test:

* **Round-trip** — ``write_workload`` → :class:`FactStream` →
  ``Instance.from_stream`` lands on the instance ``from_facts`` builds
  from the same rows (``==``), whatever the batch size.
* **Bounded chase** — ``chase(..., max_facts=)`` stops with a clean
  ``StopReason.FACT_BUDGET`` under an impossible budget, input facts
  intact, and is a no-op under a generous one.
* **Telemetry** — ingestion records ``ingest.facts`` /
  ``ingest.batches`` and an ``ingest.batch_ms`` histogram.
* **Malformed input** — a bad header, row or undecodable byte raises
  :class:`FactStreamError` naming the file (and line); fuzzed rows
  after a valid header either load or raise exactly that.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.chase import StopReason, chase
from repro.instances import Instance
from repro.instances.streaming import (
    FactStream,
    FactStreamError,
    FactStreamWriter,
)
from repro.lang import Const, Fact
from repro.lang.schema import Relation, Schema
from repro.telemetry import TELEMETRY
from repro.workloads import (
    WorkloadSpec,
    dependencies_of,
    generate_rows,
    materialize,
    schema_of,
    write_workload,
)

SPEC = WorkloadSpec(name="round", seed=11, facts=600, levels=3, skew=1.0)

# A non-terminating set under a fact budget; prints the stop as JSON.
_BUDGETED_SCRIPT = """
import json
from repro import Instance, Schema, chase, parse_tgds
from repro.lang import format_instance
schema = Schema.of(("E", 2), ("P", 2))
deps = parse_tgds(
    "E(x, y) -> exists z . E(y, z)\\nE(x, y), E(y, z) -> P(x, z)", schema
)
result = chase(Instance.parse("E(a, b)", schema), deps, max_facts=60)
print(json.dumps([
    result.stop_reason, result.rounds, result.fired,
    format_instance(result.instance),
]))
"""


def _reference(spec: WorkloadSpec) -> Instance:
    return Instance.from_facts(
        schema_of(spec),
        [Fact(rel, elements) for rel, elements in generate_rows(spec)],
    )


class TestRoundTrip:
    def test_file_round_trip_equals_from_facts(self, tmp_path):
        path = tmp_path / "w.stream"
        rows = write_workload(SPEC, path)
        assert rows == SPEC.facts
        stream = FactStream(path)
        assert stream.schema == schema_of(SPEC)
        loaded = Instance.from_stream(path)
        assert loaded == _reference(SPEC)

    def test_materialize_equals_file_route(self, tmp_path):
        path = tmp_path / "w.stream"
        write_workload(SPEC, path)
        assert materialize(SPEC) == Instance.from_stream(path)

    def test_small_batches_change_nothing(self):
        assert materialize(SPEC, batch_size=7) == materialize(SPEC)

    def test_duplicate_rows_are_dropped(self):
        schema = Schema.of(("R", 2))
        rel = schema.relation("R")
        row = (rel, (Const("a"), Const("b")))
        inst = Instance.from_stream(
            [row, row, (rel, (Const("a"), Const("c"))), row],
            schema=schema,
            batch_size=2,  # dup both within and across batches
        )
        assert len(inst.tuples("R")) == 2
        assert inst.domain == frozenset({Const("a"), Const("b"), Const("c")})


class TestErrors:
    def test_not_a_fact_stream(self, tmp_path):
        path = tmp_path / "bad.stream"
        path.write_text("R\ta\tb\n")
        with pytest.raises(FactStreamError, match="header"):
            FactStream(path)

    def test_malformed_header_payload(self, tmp_path):
        path = tmp_path / "bad.stream"
        path.write_text("#repro-factstream v1 {\"nope\": 1}\n")
        with pytest.raises(FactStreamError, match="malformed"):
            FactStream(path)

    def test_unknown_relation_row(self, tmp_path):
        path = tmp_path / "bad.stream"
        path.write_text(
            '#repro-factstream v1 {"schema": {"R": 2}}\nS\ta\tb\n'
        )
        with pytest.raises(FactStreamError, match="unknown relation"):
            list(FactStream(path))

    def test_wrong_arity_row(self, tmp_path):
        path = tmp_path / "bad.stream"
        path.write_text(
            '#repro-factstream v1 {"schema": {"R": 2}}\nR\ta\n'
        )
        with pytest.raises(FactStreamError, match="element"):
            list(FactStream(path))

    def test_undecodable_row_names_its_line(self, tmp_path):
        path = tmp_path / "bad.stream"
        rows = b"".join(b"R\ta%d\tb\n" % i for i in range(2000))
        path.write_bytes(
            b'#repro-factstream v1 {"schema": {"R": 2}}\n'
            + rows + b"R\t\xc3\xa9\t\xff\n" + rows
        )
        stream = FactStream(path)
        with pytest.raises(FactStreamError, match=f"{path}:2002: undecodable"):
            list(stream)

    def test_undecodable_header(self, tmp_path):
        path = tmp_path / "bad.stream"
        path.write_bytes(
            b'#repro-factstream v1 {"schema": {"R\xfe": 2}}\nR\ta\tb\n'
        )
        with pytest.raises(FactStreamError, match=f"{path}:1: undecodable"):
            FactStream(path)

    def test_non_ascii_utf8_loads(self, tmp_path):
        path = tmp_path / "ok.stream"
        path.write_bytes(
            '#repro-factstream v1 {"schema": {"R": 2}}\nR\t\u00e9\t\u6f22\n'
            .encode("utf-8")
        )
        assert list(FactStream(path)) == [
            (Relation("R", 2), (Const("\u00e9"), Const("\u6f22")))
        ]

    def test_writer_rejects_tab_in_name(self, tmp_path):
        schema = Schema.of(("R", 1))
        with FactStreamWriter(tmp_path / "w.stream", schema) as writer:
            with pytest.raises(FactStreamError, match="tab/newline"):
                writer.write(schema.relation("R"), (Const("a\tb"),))

    def test_writer_rejects_non_const(self, tmp_path):
        schema = Schema.of(("R", 1))
        with FactStreamWriter(tmp_path / "w.stream", schema) as writer:
            with pytest.raises(FactStreamError, match="ground Const"):
                writer.write(schema.relation("R"), (42,))

    def test_writer_rejects_foreign_relation_and_arity(self, tmp_path):
        schema = Schema.of(("R", 2))
        with FactStreamWriter(tmp_path / "w.stream", schema) as writer:
            with pytest.raises(FactStreamError, match="not in the stream"):
                writer.write(Relation("S", 1), (Const("a"),))
            with pytest.raises(FactStreamError, match="arity"):
                writer.write(schema.relation("R"), (Const("a"),))

    def test_closed_writer_rejects_writes(self, tmp_path):
        schema = Schema.of(("R", 1))
        writer = FactStreamWriter(tmp_path / "w.stream", schema)
        writer.close()
        with pytest.raises(FactStreamError, match="closed"):
            writer.write(schema.relation("R"), (Const("a"),))

    def test_iterable_source_requires_schema(self):
        with pytest.raises(FactStreamError, match="schema"):
            Instance.from_stream(iter([]))

    def test_bad_batch_size(self):
        schema = Schema.of(("R", 1))
        with pytest.raises(FactStreamError, match="batch_size"):
            Instance.from_stream([], schema=schema, batch_size=0)

    def test_iterable_rows_validated(self):
        schema = Schema.of(("R", 2))
        rel = schema.relation("R")
        with pytest.raises(FactStreamError, match="arity"):
            Instance.from_stream(
                [(rel, (Const("a"),))], schema=schema
            )
        with pytest.raises(FactStreamError, match="not in the schema"):
            Instance.from_stream(
                [(Relation("S", 1), (Const("a"),))], schema=schema
            )


_ROW_PIECES = st.one_of(
    st.sampled_from([
        b"R", b"S", b"T", b"\t", b"a", b"b", b"\r", b"\n", b"\x00",
        b"\xff", b"\xc3", b"\xc3\xa9", b"\xed\xa0\x80", b"#",
    ]),
    st.binary(max_size=6),
)


class TestFuzzedRows:
    """Arbitrary bytes after a valid header load or raise
    :class:`FactStreamError` — never any other exception."""

    @given(
        rows=st.lists(st.lists(_ROW_PIECES, max_size=6).map(b"".join),
                      max_size=8),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_rows_load_or_raise_fact_stream_error(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.stream"
            path.write_bytes(
                b'#repro-factstream v1 {"schema": {"R": 2, "S": 1}}\n'
                + b"\n".join(rows)
            )
            try:
                instance = Instance.from_stream(path)
            except FactStreamError as exc:
                assert str(path) in str(exc)
            else:
                assert instance.fact_count() <= len(rows) + sum(
                    row.count(b"\r") for row in rows
                )


class TestIngestTelemetry:
    def test_counters_and_histogram(self):
        TELEMETRY.reset()
        TELEMETRY.enable(spans=False)
        try:
            materialize(SPEC, batch_size=100)
            counters = TELEMETRY.snapshot()
            histograms = TELEMETRY.histogram_snapshot()
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert counters["ingest.facts"] == SPEC.facts
        assert counters["ingest.batches"] == SPEC.facts // 100
        assert histograms["ingest.batch_ms"].count == SPEC.facts // 100


class TestBoundedChase:
    def _workload(self):
        spec = WorkloadSpec(name="bc", seed=3, facts=400, levels=3)
        return materialize(spec), dependencies_of(spec)

    def test_impossible_budget_stops_cleanly(self):
        db, deps = self._workload()
        # The input alone is past the budget: the first firing stops.
        result = chase(db, deps, max_facts=1)
        assert result.stop_reason == StopReason.FACT_BUDGET
        assert not result.terminated and not result.failed
        assert result.rounds == 1 and result.fired == 1
        # The snapshot carries the input facts over the combined schema.
        for rel in db.schema:
            assert db.tuples(rel) <= result.instance.tuples(rel)

    def test_generous_budget_reaches_fixpoint(self):
        db, deps = self._workload()
        bounded = chase(db, deps, max_facts=1 << 20)
        unbounded = chase(db, deps)
        assert bounded.stop_reason == StopReason.FIXPOINT
        assert bounded.instance == unbounded.instance

    def test_budget_stop_ignores_earlier_runs(self):
        """A fact budget counts this run's facts only: the run stops at
        the same point right after a large chase as in a fresh
        interpreter."""
        large = WorkloadSpec(name="large", seed=5, facts=20_000, levels=3)
        assert chase(materialize(large), dependencies_of(large)).successful
        after_large = io.StringIO()
        with contextlib.redirect_stdout(after_large):
            exec(_BUDGETED_SCRIPT, {})
        src = str(Path(repro.__file__).resolve().parents[1])
        fresh = subprocess.run(
            [sys.executable, "-c", _BUDGETED_SCRIPT],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert fresh.returncode == 0, fresh.stderr[-2000:]
        expected = json.loads(fresh.stdout)
        assert expected[0] == StopReason.FACT_BUDGET and expected[1] > 1
        assert json.loads(after_large.getvalue()) == expected

    def test_fact_stop_counts_telemetry(self):
        db, deps = self._workload()
        TELEMETRY.reset()
        TELEMETRY.enable(spans=False)
        try:
            chase(db, deps, max_facts=1)
            counters = TELEMETRY.snapshot()
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert counters["chase.runs"] == 1
        assert counters["chase.budget_exhausted"] == 1
