"""Statistics layer bench — the adaptive-join ablation made explicit.

The chase-skewed workload (``repro.perf.families``) is the shape the
statistics layer exists for: six rules share a body whose static atom
order tie-breaks into Zipf-skewed hub buckets, while the selectivity
cost model reads the per-relation statistics and probes the
expected-bucket-1 atom first.

Three parts:

* per-order timings of the same pinned workload (the trajectory
  numbers behind ``BENCH_chase-skewed.json`` run the adaptive order);
* the headline ablation — adaptive must beat static by >= 1.5x on the
  skewed chase run on the test oracle's naive sweeps (every round
  rescans the Zipf buckets), with zero guard fallbacks (the workload is
  well-estimated) and a non-zero adaptive-decision count, gated on a
  machine big enough for the ratio to be meaningful;
* a micro-bench of the statistics bookkeeping itself: the incremental
  per-insert maintenance the chase state pays once statistics are
  read, against the from-scratch recomputation it replaces.
"""

import os
import time

import pytest

from conftest import record

from repro.chase.engine import _State
from repro.instances import Instance
from repro.lang.schema import Relation, Schema
from repro.perf.families import clear_engine_caches, run_skew
from repro.stats import compute_stats
from repro.telemetry import TELEMETRY
from tests.oracles.naive import naive_sweeps


@pytest.mark.parametrize("order", ["static", "adaptive"])
def test_skew_order(benchmark, order):
    clear_engine_caches()
    benchmark(lambda: run_skew(order))
    record(
        f"skewed chase order={order}",
        "fixpoint",
        "reached",
    )


# The ablation marches a longer ring with a bigger hub than the
# CI-sized trajectory family: static-order cost grows with the Zipf
# bucket mass re-scanned per naive round, so the ratio widens with
# scale — ~5x at the family's pinned sizes in development measurements.
ABLATION_NODES = 24
ABLATION_HUB = 320
ABLATION_FILLER = 1400


def _best_of(runner, repeats: int = 3) -> float:
    best = float("inf")
    for __ in range(repeats):
        clear_engine_caches()
        started = time.perf_counter()
        runner()
        best = min(best, time.perf_counter() - started)
    return best


def _timed_skew_chase(order: str) -> float:
    return _best_of(
        lambda: run_skew(
            order, nodes=ABLATION_NODES, hub=ABLATION_HUB,
            filler=ABLATION_FILLER,
        )
    )


def test_adaptive_speedup_ablation():
    """Adaptive >= 1.5x faster than static on the skewed chase, both
    on naive sweeps.

    The margin at the ablation sizes is ~5x in development
    measurements, so the 1.5x gate has headroom against scheduler
    noise — but only on hardware with spare cores; elsewhere the
    ablation is informational and skipped.  The telemetry half of the
    claim is unconditional: on this well-estimated workload the guard
    bound never trips and the cost model actually decides (every
    round's plan adaptation counts ``plan.order_adaptive``).
    """
    clear_engine_caches()
    TELEMETRY.reset()
    TELEMETRY.enable(spans=False)
    try:
        with naive_sweeps():
            run_skew("adaptive")
        counters = TELEMETRY.snapshot()
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    assert counters.get("plan.order_adaptive", 0) > 0, counters
    assert counters.get("plan.guard_fallbacks", 0) == 0, counters

    if (os.cpu_count() or 1) < 4:
        pytest.skip("speedup gate needs >= 4 cpus (timing too noisy)")
    with naive_sweeps():
        static_best = _timed_skew_chase("static")
        adaptive_best = _timed_skew_chase("adaptive")
    speedup = static_best / adaptive_best
    record(
        "skew ablation static/adaptive",
        ">=1.5x",
        f"{speedup:.2f}x ({static_best * 1e3:.1f}ms / "
        f"{adaptive_best * 1e3:.1f}ms)",
    )
    assert speedup >= 1.5, (
        f"adaptive order only {speedup:.2f}x faster "
        f"(static {static_best * 1e3:.1f}ms, "
        f"adaptive {adaptive_best * 1e3:.1f}ms)"
    )


# ----------------------------------------------------------------------
# Statistics bookkeeping overhead
# ----------------------------------------------------------------------

_MICRO_ROWS = 4000
_MICRO_REL = Relation("M", 3)


def _micro_rows():
    return [
        (f"x{i % 97}", f"y{i % 13}", f"z{i}") for i in range(_MICRO_ROWS)
    ]


def test_stats_maintenance_overhead(benchmark):
    """Time the insert path that carries the inline stats updates.

    Once read, the statistics are maintained inside the chase state's
    existing index loop, so this measures the *whole* insert cost the
    chase pays per fact under ``order="adaptive"`` — the number trended
    in the trajectory, with
    the snapshot-vs-recompute comparison printed alongside: an O(arity)
    snapshot must beat the O(rows) oracle by orders of magnitude, or
    incremental maintenance is not earning its keep.
    """
    rows = _micro_rows()
    schema = Schema([_MICRO_REL])

    def insert_all() -> _State:
        state = _State(Instance.empty(schema), schema)
        state.relation_stats(_MICRO_REL)  # switch on incremental upkeep
        for row in rows:
            state.add(_MICRO_REL, row)
        return state

    state = benchmark(insert_all)

    started = time.perf_counter()
    snapshot = state.relation_stats(_MICRO_REL)
    snapshot_seconds = time.perf_counter() - started
    started = time.perf_counter()
    oracle = compute_stats(rows, _MICRO_REL.arity)
    oracle_seconds = time.perf_counter() - started
    assert snapshot == oracle
    record(
        "stats snapshot vs recompute",
        "snapshot<<",
        f"{snapshot_seconds * 1e6:.1f}us vs {oracle_seconds * 1e6:.1f}us "
        f"({_MICRO_ROWS} rows)",
    )
