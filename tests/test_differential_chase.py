"""Differential harness: the backend × strategy × plan chase grid.

The semi-naive engine (delta joins over the indexed state,
``strategy="seminaive"``), the compiled join plans, and the columnar
interned-fact backend are each proven equivalent to the reference
engine (object backend, naive strategy, interpreted search) by
construction *and* by brute force: every grid cell fires the active
triggers of every dependency in the same canonical order, so the
outputs must be identical — not merely isomorphic — fact for fact and
null for null.  This module is the brute-force half: hundreds of
randomized scenarios (both variants, with egds and denial constraints
mixed in), seed-pinned plus a hypothesis sweep, each asserting
isomorphism (the paper-level notion, via
:mod:`repro.homomorphisms.isomorphism`) on top of exact equality of
instances and of every ``ChaseResult`` statistic across all eight
backend × strategy × plan cells.

Also here: the counter-parity checks CI runs (the semi-naive engine may
never *enumerate* more triggers than the naive one; the columnar
backend must match the object backend exactly on every shared engine
counter) and the regression test for the restricted-chase hot loop that
used to copy the full instance once per trigger.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import Instance, Schema, chase, parse_dependency, parse_tgds
from repro.chase import ChaseError, StopReason
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


def assert_strategies_agree(instance, deps, *, variant="restricted"):
    """The core differential assertion, now a 2×2×2 grid plus an order
    axis: both fact backends (object reference vs columnar interned
    store) crossed with both evaluation strategies and both
    homomorphism-search plan modes (interpreted reference vs compiled
    join plans).  All eight static-order runs must be bit-for-bit equal
    — same facts, same null numbering, same statistics.  (Under
    ``plan="interpreted"`` the columnar backend exercises its decoded
    probe interface rather than the ID-level executor; both cells are
    part of the contract.)

    The adaptive cells (``order="adaptive"``, compiled plans only, both
    backends × both strategies) are bit-identical to the reference too:
    the canonical trigger sort erases the enumeration-stream difference
    for tgds, and an egd repair pass unions every violation before it
    merges, so its renaming does not depend on the stream order
    either."""
    reference = None
    for backend in ("object", "columnar"):
        for strategy in ("naive", "seminaive"):
            for plan in ("interpreted", "compiled"):
                result = chase(
                    instance, deps, variant=variant, strategy=strategy,
                    plan=plan, backend=backend,
                    max_rounds=MAX_ROUNDS, max_facts=MAX_FACTS,
                )
                if reference is None:
                    reference = result
                    continue
                label = f"{backend}/{strategy}/{plan}"
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
    # (``result`` is the last grid cell: columnar, seminaive, compiled).
    if reference.instance.fact_count() <= ISO_FACT_CAP:
        assert are_isomorphic(result.instance, reference.instance)
    for backend in ("object", "columnar"):
        for strategy in ("naive", "seminaive"):
            adaptive = chase(
                instance, deps, variant=variant, strategy=strategy,
                plan="compiled", order="adaptive", backend=backend,
                max_rounds=MAX_ROUNDS, max_facts=MAX_FACTS,
            )
            label = f"{backend}/{strategy}/compiled/adaptive"
            assert adaptive.failed == reference.failed, label
            assert adaptive.terminated == reference.terminated, label
            assert adaptive.stop_reason == reference.stop_reason, label
            assert adaptive.rounds == reference.rounds, label
            assert adaptive.fired == reference.fired, label
            assert adaptive.nulls_created == reference.nulls_created, label
            assert adaptive.instance == reference.instance, label
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
                instance, deps, strategy="seminaive",
                max_rounds=MAX_ROUNDS, max_facts=MAX_FACTS,
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
    """The curated ontology workloads, both strategies."""

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
    """The CI gate: semi-naive never enumerates more triggers than
    naive, and fires exactly as many."""

    FIXED = (
        ("E(x, y), E(y, z) -> E(x, z)", "E(a, b). E(b, c). E(c, d). E(d, e)"),
        ("R(x, y), E(y, z) -> R(x, z)", "R(a, b). E(b, c). E(c, d). E(d, e)"),
        ("E(x, y) -> exists w . R(y, w)\nR(x, y) -> E(x, y)",
         "E(a, b). E(b, a)"),
    )

    # The backend-parity contract: every counter the two fact backends
    # share must agree *exactly* — a columnar executor that probes or
    # backtracks differently from the object reference is wrong even
    # when its output instance is identical.
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

    def _counters(self, instance, deps, strategy, plan="compiled",
                  backend="object"):
        TELEMETRY.reset()
        TELEMETRY.enable(spans=False)
        try:
            chase(
                instance, deps, strategy=strategy, plan=plan,
                backend=backend, max_rounds=8, max_facts=MAX_FACTS,
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
        for strategy in ("naive", "seminaive"):
            interp = self._counters(instance, deps, strategy, "interpreted")
            comp = self._counters(instance, deps, strategy, "compiled")
            for counter in (
                "chase.triggers_enumerated",
                "chase.triggers_fired",
                "chase.facts_added",
                "chase.nulls_created",
                "chase.rounds",
                "hom.matches",
            ):
                assert interp.get(counter, 0) == comp.get(counter, 0), (
                    f"{strategy}: {counter}"
                )

    @pytest.mark.parametrize("case", range(len(FIXED)))
    @pytest.mark.parametrize("strategy", ["naive", "seminaive"])
    def test_columnar_matches_object_counters(self, case, strategy):
        """Exact parity on every shared counter, both strategies.

        ``columnar.intern_hits`` is deliberately not compared — it only
        exists on one backend, and its value depends on whether the
        chase state was rebuilt from facts or cloned from a warm
        kernel (an unobservable construction detail)."""
        rules_text, facts_text = self.FIXED[case]
        schema = Schema.of(("E", 2), ("R", 2))
        deps = parse_tgds(rules_text, schema)
        instance = Instance.parse(facts_text, schema)
        obj = self._counters(instance, deps, strategy, backend="object")
        col = self._counters(instance, deps, strategy, backend="columnar")
        for counter in self.SHARED_COUNTERS:
            assert obj.get(counter, 0) == col.get(counter, 0), (
                f"{strategy}: {counter}"
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

    @pytest.mark.parametrize("strategy", ["naive", "seminaive"])
    def test_egd_counters_match_across_backends(self, strategy):
        instance, deps = self._egd_case()
        obj = self._counters(instance, deps, strategy, backend="object")
        col = self._counters(instance, deps, strategy, backend="columnar")
        assert obj.get("chase.egd_merges", 0) > 0
        for counter in (*self.SHARED_COUNTERS, "chase.egd_merges"):
            assert obj.get(counter, 0) == col.get(counter, 0), (
                f"{strategy}: {counter}"
            )

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

    def test_columnar_executor_actually_runs(self):
        """The join case must go through the ID-level executor —
        ``columnar.row_probes`` counts the row IDs it enumerated, and
        zero would mean the grid silently fell back to the object
        path."""
        rules_text, facts_text = self.FIXED[0]  # transitive closure join
        schema = Schema.of(("E", 2), ("R", 2))
        deps = parse_tgds(rules_text, schema)
        instance = Instance.parse(facts_text, schema)
        counters = self._counters(
            instance, deps, "seminaive", backend="columnar"
        )
        assert counters.get("columnar.row_probes", 0) > 0
        obj = self._counters(instance, deps, "seminaive", backend="object")
        assert "columnar.row_probes" not in obj

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

    @pytest.mark.parametrize("strategy", ["naive", "seminaive"])
    def test_thousand_triggers_within_budget(self, strategy):
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
        result = chase(chain, rules, strategy=strategy)
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
    facts, same statistics, same engine counters — per backend, with
    and without chunked-delta scheduling."""

    SPEC = WorkloadSpec(name="diff", seed=17, facts=500, levels=3)

    def _instances(self, backend):
        rows = list(generate_rows(self.SPEC))
        batch = Instance.from_facts(
            schema_of(self.SPEC),
            [Fact(rel, elements) for rel, elements in rows],
        ).with_backend(backend)
        streamed = Instance.from_stream(
            iter(rows),
            schema=schema_of(self.SPEC),
            backend=backend,
            batch_size=64,
        )
        return batch, streamed

    @pytest.mark.parametrize("backend", ["object", "columnar"])
    @pytest.mark.parametrize("strategy", ["naive", "seminaive"])
    def test_streamed_chase_bit_identical(self, backend, strategy):
        batch, streamed = self._instances(backend)
        assert streamed == batch
        deps = dependencies_of(self.SPEC)
        reference = chase(batch, deps, backend=backend, strategy=strategy)
        result = chase(streamed, deps, backend=backend, strategy=strategy)
        assert result.stop_reason == reference.stop_reason
        assert result.rounds == reference.rounds
        assert result.fired == reference.fired
        assert result.nulls_created == reference.nulls_created
        assert result.instance == reference.instance

    @pytest.mark.parametrize("backend", ["object", "columnar"])
    def test_chunked_delta_matches_unchunked_reference(self, backend):
        batch, streamed = self._instances(backend)
        deps = dependencies_of(self.SPEC)
        reference = chase(batch, deps, backend=backend)
        chunked = chase(streamed, deps, backend=backend, delta_chunk=53)
        assert chunked.successful
        assert chunked.fired == reference.fired
        assert chunked.instance == reference.instance

    def test_streamed_kernel_stats_match_rebuilt(self):
        batch, streamed = self._instances("columnar")
        rebuilt = batch.columnar_kernel()
        warm = streamed.columnar_kernel()
        for rel in schema_of(self.SPEC):
            assert warm.relation_stats(rel) == rebuilt.relation_stats(rel)

    @pytest.mark.parametrize("backend", ["object", "columnar"])
    def test_streamed_chase_counters_match(self, backend):
        deps = dependencies_of(self.SPEC)
        snapshots = []
        for streamed in (False, True):
            batch, stream = self._instances(backend)
            db = stream if streamed else batch
            TELEMETRY.reset()
            TELEMETRY.enable(spans=False)
            try:
                chase(db, deps, backend=backend, max_rounds=8)
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
        schema = Schema.of(("P", 1),)
        with pytest.raises(ChaseError):
            chase(
                Instance.parse("P(a)", schema),
                parse_tgds("P(x) -> P(x)", schema),
                strategy="magic",
            )

    def test_strategies_exported(self):
        from repro.chase import STRATEGIES

        assert STRATEGIES == ("seminaive", "naive")

    def test_unknown_plan_rejected(self):
        schema = Schema.of(("P", 1),)
        with pytest.raises(ChaseError, match="join plan"):
            chase(
                Instance.parse("P(a)", schema),
                parse_tgds("P(x) -> P(x)", schema),
                plan="vectorized",
            )

    def test_unknown_order_rejected(self):
        schema = Schema.of(("P", 1),)
        with pytest.raises(ChaseError, match="order mode"):
            chase(
                Instance.parse("P(a)", schema),
                parse_tgds("P(x) -> P(x)", schema),
                order="zigzag",
            )

    def test_adaptive_requires_compiled_plans(self):
        schema = Schema.of(("P", 1),)
        with pytest.raises(ChaseError, match="plan='compiled'"):
            chase(
                Instance.parse("P(a)", schema),
                parse_tgds("P(x) -> P(x)", schema),
                plan="interpreted", order="adaptive",
            )

    def test_order_modes_exported(self):
        from repro.homomorphisms.plans import DEFAULT_ORDER, ORDER_MODES

        assert ORDER_MODES == ("static", "adaptive")
        assert DEFAULT_ORDER == "static"


class TestOrderAxis:
    """The adaptive-order half of the differential contract that the
    grid sweep cannot see: entailment verdicts and the telemetry the
    perf gate keys on."""

    def test_entailment_verdicts_invariant_in_order(self):
        from repro.entailment import ENTAILMENT_CACHE
        from repro.entailment.implication import entails

        schema = Schema.of(("E", 2), ("R", 2))
        premises = tuple(parse_tgds(
            "E(x, y) -> R(x, y)\nR(x, y), E(y, z) -> R(x, z)", schema
        ))
        candidates = parse_tgds(
            "E(x, y), E(y, z) -> R(x, z)\n"   # entailed
            "R(x, y) -> E(x, y)\n"            # not entailed
            "E(x, y) -> exists w . R(y, w)",  # not entailed
            schema,
        )
        verdicts = {}
        for order in (None, "static", "adaptive"):
            for backend in (None, "columnar"):
                ENTAILMENT_CACHE.clear()
                got = tuple(
                    entails(premises, cand, order=order, backend=backend,
                            cache=False)
                    for cand in candidates
                )
                verdicts.setdefault(got, []).append((order, backend))
        assert len(verdicts) == 1, verdicts

    def test_adaptive_chase_records_telemetry(self):
        schema = Schema.of(("E", 2), ("R", 2))
        deps = parse_tgds("E(x, y), E(y, z) -> R(x, z)", schema)
        instance = Instance.parse(
            "E(a, b). E(b, c). E(c, d). E(a, c)", schema
        )
        TELEMETRY.reset()
        TELEMETRY.enable(spans=False)
        try:
            chase(instance, deps, plan="compiled", order="adaptive",
                  max_rounds=4)
            counters = TELEMETRY.snapshot()
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert counters.get("plan.order_adaptive", 0) > 0
        assert counters.get("plan.guard_fallbacks", 0) == 0
