"""Unit tests for the chase engine."""

import pytest

from repro import Instance, Schema, chase, parse_tgds
from repro.chase import ChaseError
from repro.lang import Const, Null, parse_egd
from repro.homomorphisms import find_homomorphism

SCHEMA = Schema.of(("E", 2), ("P", 1), ("Q", 1))


def inst(text: str) -> Instance:
    return Instance.parse(text, SCHEMA)


class TestFullTgdChase:
    def test_transitive_closure(self):
        rules = parse_tgds("E(x, y), E(y, z) -> E(x, z)", SCHEMA)
        db = inst("E(a, b). E(b, c). E(c, d)")
        result = chase(db, rules)
        assert result.successful
        assert result.instance.has_fact(
            next(iter(inst("E(a, d)").facts()))
        )
        assert len(result.instance.tuples("E")) == 6

    def test_result_is_a_model(self):
        rules = parse_tgds("E(x, y) -> E(y, x)\nE(x, y) -> P(x)", SCHEMA)
        result = chase(inst("E(a, b)"), rules)
        assert result.successful
        assert all(r.satisfied_by(result.instance) for r in rules)

    def test_input_preserved(self):
        rules = parse_tgds("P(x) -> Q(x)", SCHEMA)
        db = inst("P(a). E(a, b)")
        result = chase(db, rules)
        assert db.is_subset_of(result.instance)

    def test_no_rules_is_identity(self):
        db = inst("E(a, b)")
        result = chase(db, [])
        assert result.instance.facts() == db.facts()
        assert result.terminated


class TestExistentialChase:
    def test_nulls_invented(self):
        rules = parse_tgds("P(x) -> exists z . E(x, z)", SCHEMA)
        result = chase(inst("P(a)"), rules)
        assert result.successful
        assert result.nulls_created == 1
        assert any(
            isinstance(e, Null) for e in result.instance.active_domain
        )

    def test_restricted_chase_reuses_witnesses(self):
        rules = parse_tgds("P(x) -> exists z . E(x, z)", SCHEMA)
        result = chase(inst("P(a). E(a, b)"), rules)
        assert result.nulls_created == 0

    def test_oblivious_chase_fires_anyway(self):
        rules = parse_tgds("P(x) -> exists z . E(x, z)", SCHEMA)
        result = chase(inst("P(a). E(a, b)"), rules, variant="oblivious")
        assert result.nulls_created == 1

    def test_oblivious_fires_each_trigger_once(self):
        rules = parse_tgds("P(x) -> exists z . E(x, z)", SCHEMA)
        result = chase(inst("P(a)"), rules, variant="oblivious")
        assert result.terminated
        assert result.nulls_created == 1

    def test_nonterminating_budget(self):
        rules = parse_tgds(
            "P(x) -> exists z . E(x, z)\nE(x, z) -> P(z)", SCHEMA
        )
        result = chase(inst("P(a)"), rules, max_rounds=4)
        assert not result.terminated
        assert result.nulls_created >= 3

    def test_max_facts_budget(self):
        rules = parse_tgds(
            "P(x) -> exists z . E(x, z)\nE(x, z) -> P(z)", SCHEMA
        )
        result = chase(inst("P(a)"), rules, max_facts=10)
        assert not result.terminated
        assert result.instance.fact_count() >= 10

    def test_universality_into_another_model(self):
        rules = parse_tgds("P(x) -> exists z . E(x, z)", SCHEMA)
        result = chase(inst("P(a)"), rules)
        other = inst("P(a). E(a, b). Q(c)")
        fixed = {Const("a"): Const("a")}
        assert find_homomorphism(result.instance, other, fixed) is not None

    def test_empty_body_rule_fires_once(self):
        rules = parse_tgds("-> exists z . P(z)", SCHEMA)
        result = chase(Instance.empty(SCHEMA), rules)
        assert result.successful
        assert len(result.instance.tuples("P")) == 1


class TestEgdChase:
    def test_merge_nulls_with_constants(self):
        rules = parse_tgds("P(x) -> exists z . E(x, z)", SCHEMA) + (
            parse_egd("E(x, y), E(x, w) -> y = w", SCHEMA),
        )
        db = inst("P(a). E(a, b)")
        result = chase(db, rules)
        assert result.successful
        # the invented null (if any) must have merged into b
        assert result.instance.tuples("E") == inst("E(a, b)").tuples("E")

    def test_constant_clash_fails(self):
        rules = [parse_egd("E(x, y), E(x, w) -> y = w", SCHEMA)]
        result = chase(inst("E(a, b). E(a, c)"), rules)
        assert result.failed

    def test_null_null_merge(self):
        rules = parse_tgds(
            "P(x) -> exists z . E(x, z)\nQ(x) -> exists w . E(x, w)",
            SCHEMA,
        ) + (parse_egd("E(x, y), E(x, w) -> y = w", SCHEMA),)
        result = chase(inst("P(a). Q(a)"), rules)
        assert result.successful
        assert len(result.instance.tuples("E")) == 1

    def test_oblivious_rejects_egds(self):
        with pytest.raises(ChaseError):
            chase(
                inst("E(a, b)"),
                [parse_egd("E(x, y), E(x, w) -> y = w", SCHEMA)],
                variant="oblivious",
            )

    def test_unknown_variant_rejected(self):
        with pytest.raises(ChaseError):
            chase(inst("E(a, b)"), [], variant="lazy")

    @pytest.mark.parametrize("budget", ["max_rounds", "max_facts"])
    @pytest.mark.parametrize(
        "value", [-1, 2.5, float("nan"), float("inf"), "3"], ids=repr
    )
    def test_budget_that_is_no_budget_rejected(self, budget, value):
        rules = parse_tgds("E(x, y) -> exists z . E(y, z)", SCHEMA)
        with pytest.raises(ChaseError, match=budget):
            chase(inst("E(a, b)"), rules, **{budget: value})

    @pytest.mark.parametrize("budget", ["max_rounds", "max_facts"])
    def test_zero_budget_is_a_budget(self, budget):
        rules = parse_tgds("E(x, y) -> exists z . E(y, z)", SCHEMA)
        result = chase(inst("E(a, b)"), rules, **{budget: 0})
        assert not result.terminated


class TestDeterminism:
    def test_same_input_same_output(self):
        rules = parse_tgds(
            "E(x, y) -> exists z . E(y, z)\nE(x, y) -> P(x)", SCHEMA
        )
        first = chase(inst("E(a, b)"), rules, max_rounds=3)
        second = chase(inst("E(a, b)"), rules, max_rounds=3)
        assert first.instance == second.instance
        assert first.fired == second.fired
