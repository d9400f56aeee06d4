"""Streaming ingestion bench.

The ``chase-stream`` family (``repro.perf.families``) is the pinned
CI-sized trajectory workload: factory rows stream through batched
ingest into a chunked-delta rollup chase.  This bench times that
family and then records:

* the **ingest comparison** — streamed ingestion
  (``Instance.from_stream``, batched dedup) against the per-fact route
  (``Instance.from_facts``, which validates every fact) at 10^5 facts,
  as an informational ratio;
* the **million-fact demonstration** — a 10^6-fact workload ingests
  without materializing the stream, and a fact-budgeted chase over it
  stops with a clean ``StopReason.FACT_BUDGET`` instead of growing
  without bound.

The demonstration is gated on spare cores; the ratio uses CPU time
(``time.process_time``) with the two routes interleaved, because wall
clock on a busy box is noisy.
"""

import os
import time

import pytest

from conftest import record

from repro.chase import StopReason, chase
from repro.instances import Instance
from repro.lang.atoms import Fact
from repro.memo import clear_memos
from repro.perf.families import run_stream
from repro.workloads import (
    WorkloadSpec,
    dependencies_of,
    generate_rows,
    schema_of,
)


def test_stream(benchmark):
    clear_memos()
    benchmark(run_stream)
    record("chase-stream", "fixpoint", "reached")


# 10^5 facts: large enough that per-row Python overhead (Const hashing,
# per-fact interning, per-row bucket maintenance) dominates both
# routes, so the ratio measures the batching, not fixed setup costs.
ABLATION_SPEC = WorkloadSpec(
    name="ablation", seed=7, facts=100_000, levels=3, skew=1.0
)


def test_streaming_ingest_informational():
    """Streamed ingestion vs per-fact construction (no gate).

    The routes are interleaved per repeat so machine drift cancels out
    of the ratio.
    """
    schema = schema_of(ABLATION_SPEC)
    rows = list(generate_rows(ABLATION_SPEC))
    facts = [Fact(relation, elements) for relation, elements in rows]

    def per_fact() -> None:
        # The pre-streaming route: a validated set-of-frozensets build.
        Instance.from_facts(schema, facts)

    def streamed() -> None:
        Instance.from_stream(iter(rows), schema=schema)

    best_fact = best_stream = float("inf")
    for __ in range(3):
        clear_memos()
        started = time.process_time()
        per_fact()
        best_fact = min(best_fact, time.process_time() - started)
        clear_memos()
        started = time.process_time()
        streamed()
        best_stream = min(best_stream, time.process_time() - started)

    record(
        "ingest per-fact/streamed",
        "ratio",
        f"{best_fact / best_stream:.2f}x ({best_fact * 1e3:.0f}ms / "
        f"{best_stream * 1e3:.0f}ms cpu)",
    )


MILLION_SPEC = WorkloadSpec(
    name="million", seed=2021, facts=1_000_000, levels=4, skew=1.1
)


def test_million_fact_bounded_chase():
    """The acceptance demonstration: 10^6 facts ingest streamed, and a
    chase whose fact budget the input already fills stops with a clean
    ``StopReason.FACT_BUDGET`` at its first firing — no exception, the
    input facts intact in the snapshot."""
    if (os.cpu_count() or 1) < 4:
        pytest.skip("million-fact demonstration wants a big machine")
    clear_memos()
    started = time.perf_counter()
    db = Instance.from_stream(
        generate_rows(MILLION_SPEC),
        schema=schema_of(MILLION_SPEC),
        batch_size=8192,
    )
    ingest_seconds = time.perf_counter() - started
    total = sum(
        len(db.tuples(f"L{k}")) for k in range(MILLION_SPEC.levels)
    )
    assert total == MILLION_SPEC.facts

    started = time.perf_counter()
    result = chase(
        db,
        dependencies_of(MILLION_SPEC),
        max_facts=total,
        delta_chunk=65_536,
    )
    stop_seconds = time.perf_counter() - started
    assert result.stop_reason == StopReason.FACT_BUDGET
    assert result.fired == 1
    assert not result.terminated and not result.failed
    for k in range(MILLION_SPEC.levels):
        assert len(result.instance.tuples(f"L{k}")) == len(
            db.tuples(f"L{k}")
        )
    record(
        "million-fact streamed ingest",
        "10^6 facts",
        f"{total:,} facts in {ingest_seconds:.1f}s "
        f"({total / ingest_seconds:,.0f}/s)",
    )
    record(
        "million-fact bounded chase",
        "fact_budget",
        f"{result.stop_reason} in {stop_seconds:.2f}s",
    )
