"""Unit tests for chase provenance."""

import json
from pathlib import Path

import pytest

from repro import Instance, Schema, chase, parse_tgds
from repro.chase import ChaseError, explain, traced_chase
from repro.lang import Const, Fact, parse_dependency
from repro.workloads import company_guarded
from repro.workloads.scenarios import all_scenarios
from tests.test_differential_chase import _random_scenario

STRATEGIES = ["naive", "seminaive"]

SCHEMA = Schema.of(("E", 2), ("P", 1), ("Q", 1))


def fact(name: str, *elems: str) -> Fact:
    return Fact(SCHEMA.relation(name), tuple(Const(e) for e in elems))


class TestTracedChase:
    def test_trace_matches_untraced_result(self):
        from repro import chase

        rules = parse_tgds("E(x, y) -> P(x)\nP(x) -> Q(x)", SCHEMA)
        db = Instance.parse("E(a, b). E(b, c)", SCHEMA)
        plain = chase(db, rules)
        traced = traced_chase(db, rules)
        assert traced.instance.facts() == plain.instance.facts()
        assert traced.result.terminated

    def test_every_conclusion_was_new(self):
        rules = parse_tgds("E(x, y) -> P(x)\nE(x, y) -> P(y)", SCHEMA)
        db = Instance.parse("E(a, a)", SCHEMA)
        traced = traced_chase(db, rules)
        produced = [f for firing in traced.trace for f in firing.conclusions]
        assert len(produced) == len(set(produced))

    def test_premises_held_when_fired(self):
        rules = parse_tgds("E(x, y) -> P(x)\nP(x) -> Q(x)", SCHEMA)
        db = Instance.parse("E(a, b)", SCHEMA)
        traced = traced_chase(db, rules)
        known = set(db.facts())
        for firing in traced.trace:
            assert set(firing.premises) <= known
            known |= set(firing.conclusions)

    def test_nulls_in_trace(self):
        rules = parse_tgds("P(x) -> exists z . E(x, z)", SCHEMA)
        db = Instance.parse("P(a)", SCHEMA)
        traced = traced_chase(db, rules)
        assert len(traced.trace) == 1
        (firing,) = traced.trace
        assert firing.premises == (fact("P", "a"),)

    def test_egds_rejected(self):
        dep = parse_dependency("E(x, y), E(x, z) -> y = z", SCHEMA)
        with pytest.raises(ChaseError):
            traced_chase(Instance.parse("E(a, b)", SCHEMA), [dep])

    def test_denial_failure_traced(self):
        deps = list(parse_tgds("E(x, y) -> P(x)", SCHEMA)) + [
            parse_dependency("P(x) -> false", SCHEMA)
        ]
        traced = traced_chase(Instance.parse("E(a, b)", SCHEMA), deps)
        assert traced.result.failed
        assert traced.trace  # the firing that caused the violation is kept

    def test_producers_lookup(self):
        rules = parse_tgds("E(x, y) -> P(x)", SCHEMA)
        traced = traced_chase(Instance.parse("E(a, b)", SCHEMA), rules)
        assert len(traced.producers(fact("P", "a"))) == 1
        assert traced.producers(fact("E", "a", "b")) == ()


class TestExplain:
    def test_derivation_chain(self):
        rules = parse_tgds("E(x, y) -> P(x)\nP(x) -> Q(x)", SCHEMA)
        traced = traced_chase(Instance.parse("E(a, b)", SCHEMA), rules)
        lines = explain(traced, fact("Q", "a"))
        assert len(lines) == 3
        assert "[database]" in lines[-1]
        assert "Q(a)" in lines[0]

    def test_database_fact_is_leaf(self):
        rules = parse_tgds("E(x, y) -> P(x)", SCHEMA)
        traced = traced_chase(Instance.parse("E(a, b)", SCHEMA), rules)
        assert explain(traced, fact("E", "a", "b")) == ["E(a, b)  [database]"]

    def test_unknown_fact_rejected(self):
        rules = parse_tgds("E(x, y) -> P(x)", SCHEMA)
        traced = traced_chase(Instance.parse("E(a, b)", SCHEMA), rules)
        with pytest.raises(ValueError):
            explain(traced, fact("Q", "zzz"))

    def test_depth_cap(self):
        rel = SCHEMA.relation("E")
        chain_rules = parse_tgds("E(x, y) -> E(y, x)", SCHEMA)
        traced = traced_chase(Instance.parse("E(a, b)", SCHEMA), chain_rules)
        lines = explain(traced, fact("E", "b", "a"), max_depth=0)
        assert any("..." in line for line in lines)


class TestFiringHook:
    def test_hook_sees_every_firing_and_changes_nothing(self):
        rules = parse_tgds("E(x, y) -> P(x)\nE(x, y) -> P(y)", SCHEMA)
        db = Instance.parse("E(a, a). E(a, b)", SCHEMA)
        calls = []
        hooked = chase(
            db, rules, on_fire=lambda *call: calls.append(call)
        )
        plain = chase(db, rules)
        assert hooked == plain
        assert len(calls) == plain.fired
        added = [fact for __, __, facts in calls for fact in facts]
        assert sorted(added) == [fact("P", "a"), fact("P", "b")]

    def test_oblivious_refiring_adds_nothing(self):
        rules = parse_tgds("E(x, y) -> P(x)", SCHEMA)
        db = Instance.parse("E(a, b). E(a, c)", SCHEMA)
        calls = []
        chase(
            db, rules, variant="oblivious",
            on_fire=lambda *call: calls.append(call),
        )
        assert [facts for __, __, facts in calls] == [
            (fact("P", "a"),), (),
        ]
        trace = traced_chase(db, rules, variant="oblivious").trace
        assert len(trace) == 1


def _pinned_scenario(key):
    """The input a pinned trace was recorded from, and its options."""
    if key == "explainability":
        scenario = company_guarded()
        return scenario.sample, scenario.tgds, {}
    if key.startswith("scenario-"):
        name = key[len("scenario-"):]
        (scenario,) = [s for s in all_scenarios() if s.name == name]
        return scenario.sample, scenario.tgds, {"max_rounds": 5}
    seed = int(key[len("seed-"):])
    instance, deps = _random_scenario(seed, with_denials=seed >= 2000)
    return instance, deps, {"max_rounds": 5}


def _as_record(traced):
    result = traced.result
    return {
        "trace": [
            [str(f.tgd), [str(p) for p in f.premises],
             [str(c) for c in f.conclusions]]
            for f in traced.trace
        ],
        "facts": sorted(str(f) for f in traced.instance.facts()),
        "stop_reason": result.stop_reason,
        "rounds": result.rounds,
        "fired": result.fired,
        "nulls_created": result.nulls_created,
    }


class TestPinnedTraces:
    """Traces recorded from the standalone traced-chase loop that
    preceded the firing hook (naive re-enumeration): the
    explainability example's scenario, the curated tgd scenarios and
    twenty seeded random tgd / tgd+denial scenarios.  Every strategy
    must reproduce them exactly."""

    PINNED = json.loads(
        (Path(__file__).parent / "data" / "provenance_traces.json")
        .read_text()
    )

    def test_corpus_is_substantial(self):
        reasons = {entry["stop_reason"] for entry in self.PINNED.values()}
        assert {"fixpoint", "round_budget", "denial_violation"} <= reasons
        assert sum(len(e["trace"]) for e in self.PINNED.values()) >= 50

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_traces_reproduced(self, strategy):
        for key, want in sorted(self.PINNED.items()):
            instance, deps, options = _pinned_scenario(key)
            traced = traced_chase(
                instance, deps, strategy=strategy, **options
            )
            got = _as_record(traced)
            got.pop("explain", None)
            want = {k: v for k, v in want.items() if k != "explain"}
            assert got == want, key

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_explain_output_reproduced(self, strategy):
        instance, deps, options = _pinned_scenario("explainability")
        traced = traced_chase(instance, deps, strategy=strategy, **options)
        derived = sorted(set(traced.instance.facts()) - set(instance.facts()))
        got = {str(f): explain(traced, f) for f in derived}
        assert got == self.PINNED["explainability"]["explain"]


class TestChunkedTrace:
    """A ``delta_chunk`` run fires in per-slice batches, not in one
    canonical sort per sweep; the trace must still be a valid
    derivation log."""

    RULES = "E(x, y), E(y, z) -> E(x, z)\nE(x, y), P(x) -> P(y)"

    def test_one_producer_per_fact_and_premises_held(self):
        rel = SCHEMA.relation("E")
        chain = [
            Fact(rel, (Const(f"v{i}"), Const(f"v{i + 1}"))) for i in range(24)
        ]
        instance = Instance.from_facts(SCHEMA, chain + [fact("P", "v0")])
        deps = parse_tgds(self.RULES, SCHEMA)
        traced = traced_chase(instance, deps, delta_chunk=7)
        assert traced.result.successful
        assert traced.instance == chase(instance, deps).instance
        derived = set(traced.instance.facts()) - set(instance.facts())
        produced = [f for firing in traced.trace for f in firing.conclusions]
        # The closure's pairs beyond the chain, plus P(v1) ... P(v24).
        assert len(derived) == (25 * 24 // 2 - 24) + 24
        assert len(produced) == len(set(produced))
        assert set(produced) == derived
        for f in derived:
            assert len(traced.producers(f)) == 1
        known = set(instance.facts())
        for firing in traced.trace:
            assert set(firing.premises) <= known
            known |= set(firing.conclusions)
