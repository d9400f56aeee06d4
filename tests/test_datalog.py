"""Datalog programs through the chase.

Full tgds are Datalog rules, and the chase evaluates them semi-naively.
Each case here runs on the engine and on the naive oracle, and both
must match the activity-checking reference loop of
``tests/oracles/restricted.py``: the same facts, rounds, firings and
``on_fire`` calls.
"""

from repro import Instance, Schema, chase, parse_tgds
from repro.chase import StopReason
from tests.oracles.naive import EVALUATIONS
from tests.oracles.restricted import activity_checked_chase
from tests.test_datalog_path import facts_by_name, recorded_chase

SCHEMA = Schema.of(("E", 2), ("T", 2), ("P", 1))
CLOSURE = "E(x, y) -> T(x, y)\nT(x, y), E(y, z) -> T(x, z)"


def inst(text: str) -> Instance:
    return Instance.parse(text, SCHEMA)


def checked_chase(db, rules):
    """The engine's result, after checking both evaluations against
    the reference loop."""
    reference = activity_checked_chase(db, rules)
    assert reference.terminated
    for evaluation in EVALUATIONS:
        result, calls = recorded_chase(db, rules, evaluation)
        assert result.stop_reason == StopReason.FIXPOINT, evaluation
        assert result.fired == reference.fired, evaluation
        assert result.rounds == reference.rounds, evaluation
        assert facts_by_name(result.instance) == reference.facts, evaluation
        assert calls == reference.firings, evaluation
    return result


class TestSeminaive:
    def test_transitive_closure(self):
        rules = parse_tgds(CLOSURE, SCHEMA)
        result = checked_chase(inst("E(a, b). E(b, c). E(c, d)"), rules)
        assert len(result.instance.tuples("T")) == 6
        assert result.fired == 6

    def test_agrees_with_chase(self, rng):
        from repro.dependencies import TGDClass
        from repro.workloads import random_instance, random_schema, random_tgd_set

        for __ in range(5):
            schema = random_schema(rng, relations=2, max_arity=2)
            tgds = random_tgd_set(
                rng, schema, 3, cls=TGDClass.FULL, body_atoms=2
            )
            tgds = tuple(t for t in tgds if t.body)
            if not tgds:
                continue
            checked_chase(random_instance(rng, schema, 3, density=0.4), tgds)

    def test_no_rules_is_identity(self):
        db = inst("E(a, b)")
        result = chase(db, [])
        assert result.instance.facts() == db.facts()
        assert result.fired == 0

    def test_same_round_two_new_premises(self):
        # P(x) and T(x, x) both appear in round 1; their join fires in
        # round 2 — semi-naive must not miss cross-delta joins.
        schema = Schema.of(("A", 1), ("P", 1), ("T", 2), ("Goal", 1))
        rules = parse_tgds(
            "A(x) -> P(x)\nA(x) -> T(x, x)\nP(x), T(x, x) -> Goal(x)",
            schema,
        )
        result = checked_chase(Instance.parse("A(a)", schema), rules)
        assert len(result.instance.tuples("Goal")) == 1

    def test_repeated_variables(self):
        rules = parse_tgds("E(x, y), E(y, x) -> P(x)", SCHEMA)
        result = checked_chase(inst("E(a, b). E(b, a). E(b, c)"), rules)
        assert len(result.instance.tuples("P")) == 2

    def test_rounds_reported(self):
        rules = parse_tgds(CLOSURE, SCHEMA)
        facts = ". ".join(f"E(v{i}, v{i+1})" for i in range(6))
        result = checked_chase(inst(facts), rules)
        assert result.rounds >= 3
