"""Differential harness: the evaluation × matcher chase grid.

The engine's semi-naive sweeps (delta joins over the indexed state)
and the compiled join plans are each proven equivalent to the
reference (the naive sweeps of ``tests/oracles/naive.py``, the
interpreted search of ``tests/oracles/interpreted.py``) by
construction *and* by brute force: every grid cell fires the active
triggers of every dependency in the same canonical order, so the
outputs must be identical — not merely isomorphic — fact for fact and
null for null.  This module is the brute-force half: hundreds of
randomized scenarios (both variants, with egds and denial constraints
mixed in), seed-pinned plus a hypothesis sweep, each asserting
isomorphism (the paper-level notion, via
:mod:`repro.homomorphisms.isomorphism`) on top of exact equality of
instances and of every ``ChaseResult`` statistic across all grid
cells.

Also here: the counter-parity checks CI runs (the semi-naive engine may
never *enumerate* more triggers than the naive oracle, and must fire
exactly as many) and the regression test for the restricted-chase hot
loop that used to copy the full instance once per trigger.
"""

from __future__ import annotations

import importlib
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import Instance, Schema, chase, parse_dependency, parse_tgds
from repro.chase import StopReason
from repro.dependencies.egd import EGD
from repro.dependencies.denial import DenialConstraint
from repro.homomorphisms.isomorphism import are_isomorphic
from repro.lang import Atom, Const, Fact, Var
from repro.telemetry import TELEMETRY
from repro.workloads import (
    WorkloadSpec,
    dependencies_of,
    generate_rows,
    schema_of,
)
from repro.workloads.random_instances import random_instance
from repro.workloads.random_tgds import random_schema, random_tgd_set
from repro.workloads.scenarios import all_scenarios
from tests.oracles.interpreted import interpreted_search
from tests.oracles.naive import EVALUATIONS, sweeps

MAX_ROUNDS = 5
MAX_FACTS = 250
ISO_FACT_CAP = 80  # isomorphism search is exponential; equality covers the rest


def _random_egd(rng: random.Random, schema: Schema) -> EGD | None:
    """A functional-dependency-style egd on a relation of arity ≥ 2."""
    wide = [rel for rel in schema if rel.arity >= 2]
    if not wide:
        return None
    rel = rng.choice(wide)
    left = [Var(f"e{i}") for i in range(rel.arity)]
    right = [left[0]] + [Var(f"f{i}") for i in range(1, rel.arity)]
    return EGD(
        (Atom(rel, tuple(left)), Atom(rel, tuple(right))),
        left[-1],
        right[-1],
    )


def _random_denial(rng: random.Random, schema: Schema) -> DenialConstraint:
    """A two-atom denial over random relations."""
    atoms = []
    pool = [Var("d0"), Var("d1"), Var("d2")]
    for __ in range(2):
        rel = rng.choice(list(schema))
        atoms.append(
            Atom(rel, tuple(rng.choice(pool) for __ in range(rel.arity)))
        )
    return DenialConstraint(tuple(atoms))


def _random_scenario(
    seed: int, *, with_egds: bool = False, with_denials: bool = False
):
    rng = random.Random(seed)
    schema = random_schema(rng, relations=rng.randint(2, 3), max_arity=2)
    try:
        tgds = random_tgd_set(
            rng,
            schema,
            rng.randint(1, 3),
            body_atoms=2,
            head_atoms=2,
            body_variables=3,
            existential_variables=1,
        )
    except ValueError:
        return None
    deps: list = list(tgds)
    if with_egds:
        egd = _random_egd(rng, schema)
        if egd is not None:
            deps.append(egd)
    if with_denials:
        deps.append(_random_denial(rng, schema))
    instance = random_instance(
        rng, schema, rng.randint(2, 3), density=0.4
    )
    return instance, deps


def chase_with(matcher, *args, evaluation="seminaive", **kwargs):
    """``chase(*args, **kwargs)`` on the compiled plans or, for
    ``matcher="interpreted"``, on the interpreted test oracle; on the
    engine's semi-naive sweeps or, for ``evaluation="naive"``, on the
    naive oracle."""
    with sweeps(evaluation, kwargs.get("variant", "restricted")):
        if matcher == "interpreted":
            with interpreted_search():
                return chase(*args, **kwargs)
        return chase(*args, **kwargs)


def assert_strategies_agree(instance, deps, *, variant="restricted"):
    """The core differential assertion, a 2×2 grid: both evaluations
    (naive oracle vs semi-naive engine) crossed with both homomorphism
    matchers (the interpreted oracle vs compiled join plans).  All four
    runs must be bit-for-bit equal — same facts, same null numbering,
    same statistics."""
    reference = None
    for evaluation in EVALUATIONS:
        for matcher in ("interpreted", "compiled"):
            result = chase_with(
                matcher, instance, deps, variant=variant,
                evaluation=evaluation,
                max_rounds=MAX_ROUNDS, max_facts=MAX_FACTS,
            )
            if reference is None:
                reference = result
                continue
            label = f"{evaluation}/{matcher}"
            assert result.stop_reason == reference.stop_reason, label
            assert result.terminated == reference.terminated, label
            assert result.failed == reference.failed, label
            assert result.rounds == reference.rounds, label
            assert result.fired == reference.fired, label
            assert result.nulls_created == reference.nulls_created, label
            # Canonical firing order makes the engines bit-for-bit
            # equal...
            assert result.instance == reference.instance, label
    # ...which the paper-level equivalence (isomorphism) must confirm
    # (``result`` is the last grid cell: seminaive, compiled).
    if reference.instance.fact_count() <= ISO_FACT_CAP:
        assert are_isomorphic(result.instance, reference.instance)
    return reference


class TestRandomizedSweep:
    """Seed-pinned randomized scenarios: ≥200 in total across the
    parametrizations below, every one a naive/semi-naive equivalence
    proof obligation."""

    @pytest.mark.parametrize("seed", range(120))
    def test_tgds_restricted(self, seed):
        scenario = _random_scenario(seed)
        if scenario is None:
            pytest.skip("schema cannot support requested tgd shape")
        instance, deps = scenario
        assert_strategies_agree(instance, deps)

    @pytest.mark.parametrize("seed", range(40))
    def test_tgds_oblivious(self, seed):
        scenario = _random_scenario(seed)
        if scenario is None:
            pytest.skip("schema cannot support requested tgd shape")
        instance, deps = scenario
        assert_strategies_agree(instance, deps, variant="oblivious")

    @pytest.mark.parametrize("seed", range(1000, 1040))
    def test_with_egds(self, seed):
        scenario = _random_scenario(seed, with_egds=True)
        if scenario is None:
            pytest.skip("schema cannot support requested tgd shape")
        instance, deps = scenario
        assert_strategies_agree(instance, deps)

    @pytest.mark.parametrize("seed", range(2000, 2030))
    def test_with_denials(self, seed):
        scenario = _random_scenario(seed, with_denials=True)
        if scenario is None:
            pytest.skip("schema cannot support requested tgd shape")
        instance, deps = scenario
        assert_strategies_agree(instance, deps)

    @pytest.mark.parametrize("seed", range(3000, 3020))
    def test_with_egds_and_denials(self, seed):
        scenario = _random_scenario(
            seed, with_egds=True, with_denials=True
        )
        if scenario is None:
            pytest.skip("schema cannot support requested tgd shape")
        instance, deps = scenario
        assert_strategies_agree(instance, deps)

    def test_denial_scenarios_actually_fire_sometimes(self):
        reasons = set()
        for seed in range(2000, 2030):
            scenario = _random_scenario(seed, with_denials=True)
            if scenario is None:
                continue
            instance, deps = scenario
            result = chase(
                instance, deps, max_rounds=MAX_ROUNDS, max_facts=MAX_FACTS,
            )
            reasons.add(result.stop_reason)
        # the sweep must exercise the violation path, not just fixpoints
        assert StopReason.DENIAL_VIOLATION in reasons


class TestHypothesisSweep:
    """Property-based layer on top of the pinned seeds."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        egds=st.booleans(),
        denials=st.booleans(),
    )
    def test_equivalence(self, seed, egds, denials):
        scenario = _random_scenario(
            seed, with_egds=egds, with_denials=denials
        )
        if scenario is None:
            return
        instance, deps = scenario
        assert_strategies_agree(instance, deps)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_equivalence_oblivious(self, seed):
        scenario = _random_scenario(seed)
        if scenario is None:
            return
        instance, deps = scenario
        assert_strategies_agree(instance, deps, variant="oblivious")


class TestCuratedScenarios:
    """The curated ontology workloads, both evaluations."""

    @pytest.mark.parametrize(
        "scenario", all_scenarios(), ids=lambda s: s.name
    )
    def test_equivalence(self, scenario):
        assert_strategies_agree(scenario.sample, scenario.tgds)

    def test_social_non_terminating_budget(self):
        from repro.workloads.scenarios import social_non_terminating

        scenario = social_non_terminating()
        result = assert_strategies_agree(scenario.sample, scenario.tgds)
        assert result.stop_reason == StopReason.ROUND_BUDGET


class TestCounterParity:
    """The CI gate: the engine's semi-naive sweeps never enumerate more
    triggers than the naive oracle's, and fire exactly as many."""

    FIXED = (
        ("E(x, y), E(y, z) -> E(x, z)", "E(a, b). E(b, c). E(c, d). E(d, e)"),
        ("R(x, y), E(y, z) -> R(x, z)", "R(a, b). E(b, c). E(c, d). E(d, e)"),
        ("E(x, y) -> exists w . R(y, w)\nR(x, y) -> E(x, y)",
         "E(a, b). E(b, a)"),
    )

    # The engine counters a construction detail (streamed vs batch
    # ingest) must not move.
    SHARED_COUNTERS = (
        "chase.rounds",
        "chase.triggers_enumerated",
        "chase.triggers_fired",
        "chase.facts_added",
        "hom.matches",
        "hom.backtracks",
        "hom.index_probes",
        "hom.forward_prunes",
    )

    def _counters(self, instance, deps, evaluation, matcher="compiled"):
        TELEMETRY.reset()
        TELEMETRY.enable(spans=False)
        try:
            chase_with(
                matcher, instance, deps, evaluation=evaluation,
                max_rounds=8, max_facts=MAX_FACTS,
            )
            return TELEMETRY.snapshot()
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()

    @pytest.mark.parametrize("case", range(len(FIXED)))
    def test_seminaive_enumerates_no_more_than_naive(self, case):
        rules_text, facts_text = self.FIXED[case]
        schema = Schema.of(("E", 2), ("R", 2))
        deps = parse_tgds(rules_text, schema)
        instance = Instance.parse(facts_text, schema)
        naive = self._counters(instance, deps, "naive")
        semi = self._counters(instance, deps, "seminaive")
        assert (
            semi.get("chase.triggers_enumerated", 0)
            <= naive.get("chase.triggers_enumerated", 0)
        )
        assert (
            semi.get("chase.triggers_fired", 0)
            == naive.get("chase.triggers_fired", 0)
        )

    @pytest.mark.parametrize("case", range(len(FIXED)))
    def test_plans_preserve_chase_counters(self, case):
        """Compiled plans change *search* counters (fewer probes, some
        forward prunes) but must not change what the chase itself does:
        triggers enumerated, triggers fired, facts added, nulls."""
        rules_text, facts_text = self.FIXED[case]
        schema = Schema.of(("E", 2), ("R", 2))
        deps = parse_tgds(rules_text, schema)
        instance = Instance.parse(facts_text, schema)
        for evaluation in EVALUATIONS:
            interp = self._counters(
                instance, deps, evaluation, "interpreted"
            )
            comp = self._counters(instance, deps, evaluation, "compiled")
            # The oracle really replaced the engine's matcher.
            assert comp.get("hom.plan_hits", 0) + comp.get(
                "hom.plan_compiles", 0
            ) > 0
            assert "hom.plan_hits" not in interp
            assert "hom.plan_compiles" not in interp
            for counter in (
                "chase.triggers_enumerated",
                "chase.triggers_fired",
                "chase.facts_added",
                "chase.nulls_created",
                "chase.rounds",
                "hom.matches",
            ):
                assert interp.get(counter, 0) == comp.get(counter, 0), (
                    f"{evaluation}: {counter}"
                )

    # Existential tgds whose nulls a key egd merges: the first repair
    # pass unions the three ``R`` values of the chain.
    EGD_CASE = (
        "E(x, y) -> exists z . R(y, z)\n"
        "E(x, y), R(y, z) -> R(x, z)\n"
        "R(x, y), R(x, z) -> y = z",
        "E(a, b). E(b, c). E(c, d)",
    )

    def _egd_case(self):
        rules_text, facts_text = self.EGD_CASE
        schema = Schema.of(("E", 2), ("R", 2))
        deps = [
            parse_dependency(line, schema)
            for line in rules_text.splitlines()
        ]
        return Instance.parse(facts_text, schema), deps

    def test_egd_seminaive_enumerates_fewer_than_naive(self):
        """Merged facts enter the delta as new facts, so semi-naive
        evaluation keeps its advantage across egd merges."""
        instance, deps = self._egd_case()
        naive = self._counters(instance, deps, "naive")
        semi = self._counters(instance, deps, "seminaive")
        assert (
            semi.get("chase.triggers_enumerated", 0)
            < naive.get("chase.triggers_enumerated", 0)
        )
        for counter in ("chase.triggers_fired", "chase.egd_merges"):
            assert semi.get(counter, 0) == naive.get(counter, 0), counter

    def test_chase_reuses_plans_across_rounds(self):
        """A transitive-closure chase matches the same two rule bodies
        every round: after the first compilations, every further lookup
        must be a cache hit (plan_hits ≫ plan_compiles)."""
        from repro.homomorphisms.plans import PLAN_CACHE

        schema = Schema.of(("E", 2),)
        rel = schema.relation("E")
        chain = Instance.from_facts(
            schema,
            [
                Fact(rel, (Const(f"v{i}"), Const(f"v{i + 1}")))
                for i in range(12)
            ],
        )
        deps = parse_tgds("E(x, y), E(y, z) -> E(x, z)", schema)
        PLAN_CACHE.clear()
        counters = self._counters(chain, deps, "seminaive", "compiled")
        hits = counters.get("hom.plan_hits", 0)
        compiles = counters.get("hom.plan_compiles", 0)
        assert compiles <= 8
        assert hits > 20 * compiles


class TestRestrictedHotLoopRegression:
    """The activity re-check used to call ``state.snapshot()`` — a full
    instance copy with validation — once per trigger.  Chasing a chain
    to its transitive closure fires >1k triggers; under the old
    per-trigger copies this took minutes, with the live indexed state
    it is sub-second.  The generous wall-clock bound fails loudly if
    full copies ever sneak back into the hot loop."""

    TIME_BUDGET_SECONDS = 20.0

    @pytest.mark.parametrize("evaluation", EVALUATIONS)
    def test_thousand_triggers_within_budget(self, evaluation):
        schema = Schema.of(("E", 2),)
        rel = schema.relation("E")
        chain = Instance.from_facts(
            schema,
            [
                Fact(rel, (Const(f"v{i}"), Const(f"v{i + 1}")))
                for i in range(50)
            ],
        )
        rules = parse_tgds("E(x, y), E(y, z) -> E(x, z)", schema)
        start = time.perf_counter()
        result = chase_with("compiled", chain, rules, evaluation=evaluation)
        elapsed = time.perf_counter() - start
        assert result.successful
        assert result.fired > 1000
        assert len(result.instance.tuples("E")) == 50 * 51 // 2
        assert elapsed < self.TIME_BUDGET_SECONDS, (
            f"restricted chase hot loop regressed: {result.fired} "
            f"triggers took {elapsed:.1f}s"
        )


class TestStreamingAxis:
    """Streamed ingestion is a construction detail the chase must not
    observe: ``Instance.from_stream`` and ``Instance.from_facts`` over
    the same factory rows must chase to bit-identical results — same
    facts, same statistics, same engine counters — with and without
    chunked-delta scheduling."""

    SPEC = WorkloadSpec(name="diff", seed=17, facts=500, levels=3)

    def _instances(self):
        rows = list(generate_rows(self.SPEC))
        batch = Instance.from_facts(
            schema_of(self.SPEC),
            [Fact(rel, elements) for rel, elements in rows],
        )
        streamed = Instance.from_stream(
            iter(rows), schema=schema_of(self.SPEC), batch_size=64
        )
        return batch, streamed

    @pytest.mark.parametrize("evaluation", EVALUATIONS)
    def test_streamed_chase_bit_identical(self, evaluation):
        batch, streamed = self._instances()
        assert streamed == batch
        deps = dependencies_of(self.SPEC)
        with sweeps(evaluation):
            reference = chase(batch, deps)
            result = chase(streamed, deps)
        assert result.stop_reason == reference.stop_reason
        assert result.rounds == reference.rounds
        assert result.fired == reference.fired
        assert result.nulls_created == reference.nulls_created
        assert result.instance == reference.instance

    def test_streamed_chase_counters_match(self):
        deps = dependencies_of(self.SPEC)
        snapshots = []
        for streamed in (False, True):
            batch, stream = self._instances()
            db = stream if streamed else batch
            TELEMETRY.reset()
            TELEMETRY.enable(spans=False)
            try:
                chase(db, deps, max_rounds=8)
                snapshots.append(TELEMETRY.snapshot())
            finally:
                TELEMETRY.disable()
                TELEMETRY.reset()
        for counter in TestCounterParity.SHARED_COUNTERS:
            assert snapshots[0].get(counter, 0) == snapshots[1].get(
                counter, 0
            ), counter


class TestStrategyApi:
    def test_unknown_strategy_rejected(self):
        """Semi-naive is the only evaluation: ``chase`` has no
        ``strategy`` parameter left to choose another."""
        schema = Schema.of(("P", 1),)
        with pytest.raises(TypeError, match="strategy"):
            chase(
                Instance.parse("P(a)", schema),
                parse_tgds("P(x) -> P(x)", schema),
                strategy="naive",
            )

    def test_strategies_exported(self):
        """With one evaluation left there is no list of strategies to
        export."""
        # ``repro.chase`` names the function once ``repro`` is imported,
        # so fetch the package itself.
        package = importlib.import_module("repro.chase")

        assert not hasattr(package, "STRATEGIES")
        assert "STRATEGIES" not in package.__all__

    def test_unknown_order_rejected(self):
        """The static join order is the only one: ``chase``,
        ``entails`` and the search entry point have no ``order``
        parameter left to choose another."""
        from repro.entailment import entails
        from repro.homomorphisms import all_extensions_of

        schema = Schema.of(("P", 1),)
        instance = Instance.parse("P(a)", schema)
        deps = parse_tgds("P(x) -> P(x)", schema)
        for order in ("static", "adaptive"):
            with pytest.raises(TypeError, match="order"):
                chase(instance, deps, order=order)
            with pytest.raises(TypeError, match="order"):
                entails(deps, deps[0], order=order)
            with pytest.raises(TypeError, match="order"):
                all_extensions_of(deps[0].body, instance, order=order)

    def test_order_modes_exported(self):
        """With one join order left there is no list of order modes,
        no default and no ordering registry to export."""
        from repro import homomorphisms
        from repro.homomorphisms import plans

        for name in (
            "ORDER_MODES", "DEFAULT_ORDER", "ORDERINGS", "Ordering",
            "StaticOrdering", "AdaptiveOrdering",
        ):
            assert not hasattr(plans, name), name
            assert not hasattr(homomorphisms, name), name
            assert name not in homomorphisms.__all__, name
