"""Unit tests for the Instance structure, including the ⊆ / ≤ distinction."""

import pytest

from repro import Instance, Schema
from repro.instances import InstanceError
from repro.lang import Const, Fact, Relation


SCHEMA = Schema.of(("R", 2), ("S", 1))


def inst(text: str) -> Instance:
    return Instance.parse(text, SCHEMA)


class TestConstruction:
    def test_empty(self):
        empty = Instance.empty(SCHEMA)
        assert empty.is_empty() and len(empty.domain) == 0

    def test_from_facts_infers_domain(self):
        i = inst("R(a, b). S(b)")
        assert i.domain == {Const("a"), Const("b")}
        assert i.fact_count() == 2

    def test_extra_domain_elements(self):
        i = Instance.from_facts(
            SCHEMA, [Fact(SCHEMA.relation("S"), (Const("a"),))],
            extra_domain=[Const("dead")],
        )
        assert Const("dead") in i.domain
        assert Const("dead") not in i.active_domain

    def test_tuple_outside_domain_rejected(self):
        with pytest.raises(InstanceError):
            Instance(SCHEMA, {Const("a")}, {SCHEMA.relation("S"): {(Const("b"),)}})

    def test_wrong_arity_rejected(self):
        with pytest.raises(InstanceError):
            Instance(
                SCHEMA, {Const("a")}, {SCHEMA.relation("R"): {(Const("a"),)}}
            )

    def test_unknown_relation_rejected(self):
        with pytest.raises(InstanceError):
            Instance(SCHEMA, set(), {Relation("X", 1): set()})

    def test_parse_infers_schema(self):
        i = Instance.parse("Edge(a, b)")
        assert i.schema.relation("Edge").arity == 2


class TestContainment:
    def test_subset_is_fact_containment(self):
        small = inst("R(a, b)")
        big = inst("R(a, b). S(a)")
        assert small.is_subset_of(big)
        assert not big.is_subset_of(small)

    def test_subinstance_requires_restriction_equality(self):
        # J ⊆ I but J ≰ I: J misses S(a) although a ∈ dom(J).
        big = inst("R(a, b). S(a)")
        j = inst("R(a, b)")
        assert j.is_subset_of(big)
        assert not j.is_subinstance_of(big)

    def test_restrict_produces_subinstance(self):
        big = inst("R(a, b). S(a). S(c)")
        sub = big.restrict({Const("a"), Const("b")})
        assert sub.is_subinstance_of(big)
        assert sub.fact_count() == 2  # R(a,b) and S(a)

    def test_restrict_outside_domain_rejected(self):
        with pytest.raises(InstanceError):
            inst("S(a)").restrict({Const("z")})

    def test_subinstance_implies_subset(self):
        big = inst("R(a, b). S(a). S(b)")
        sub = big.restrict({Const("a")})
        assert sub.is_subinstance_of(big) and sub.is_subset_of(big)

    def test_schema_mismatch_raises(self):
        other = Instance.parse("R(a, b)", Schema.of(("R", 2)))
        with pytest.raises(Exception):
            inst("S(a)").is_subset_of(other)


class TestUpdates:
    def test_add_facts_extends_domain(self):
        i = inst("S(a)").add_facts([Fact(SCHEMA.relation("S"), (Const("b"),))])
        assert Const("b") in i.domain

    def test_remove_facts_keeps_domain(self):
        i = inst("S(a). S(b)")
        j = i.remove_facts([Fact(SCHEMA.relation("S"), (Const("b"),))])
        assert Const("b") in j.domain
        assert j.fact_count() == 1

    def test_with_domain_requires_active_cover(self):
        i = inst("S(a)")
        with pytest.raises(InstanceError):
            i.with_domain({Const("b")})

    def test_with_domain_changes_membership_material(self):
        i = inst("S(a)")
        padded = i.with_domain({Const("a"), Const("b")})
        assert padded.facts() == i.facts()
        assert padded != i  # domains differ — Definition 3.7 material

    def test_shrink_domain(self):
        padded = inst("S(a)").with_domain({Const("a"), Const("b")})
        assert padded.shrink_domain() == inst("S(a)")

    def test_rename_non_injective(self):
        i = inst("R(a, b)")
        collapsed = i.rename({Const("b"): Const("a")})
        assert collapsed.has_fact(
            Fact(SCHEMA.relation("R"), (Const("a"), Const("a")))
        )
        assert len(collapsed.domain) == 1

    def test_rename_with_callable(self):
        i = inst("S(a)")
        renamed = i.rename(lambda e: Const(e.name.upper()))
        assert Const("A") in renamed.domain

    def test_with_schema_superset(self):
        bigger = SCHEMA.extend(("X", 1))
        lifted = inst("S(a)").with_schema(bigger)
        assert lifted.tuples("X") == frozenset()

    def test_project_schema(self):
        projected = inst("R(a, b). S(a)").project_schema(Schema.of(("S", 1)))
        assert projected.fact_count() == 1
        assert Const("b") in projected.domain  # domain is kept


class TestShapePredicates:
    def test_guarded_with_covering_fact(self):
        assert inst("R(a, b)").is_guarded()
        assert not inst("S(a). S(b)").is_guarded()

    def test_empty_instance_guarded(self):
        assert Instance.empty(SCHEMA).is_guarded()

    def test_relative_guardedness(self):
        i = inst("R(a, b). S(c)")
        assert i.is_guarded_relative_to({Const("a"), Const("b")})
        assert not i.is_guarded_relative_to({Const("a"), Const("c")})

    def test_is_critical(self):
        from repro.instances import critical_instance
        from tests.oracles.critical import is_critical

        assert is_critical(critical_instance(SCHEMA, 2))
        assert not is_critical(inst("R(a, b)"))


class TestIdentity:
    def test_equality_includes_domain(self):
        a = inst("S(a)")
        assert a == inst("S(a)")
        assert a != a.with_domain({Const("a"), Const("x")})

    def test_hash_consistent(self):
        assert hash(inst("S(a)")) == hash(inst("S(a)"))

    def test_iteration_sorted(self):
        facts = list(inst("S(b). S(a). R(a, a)"))
        assert [str(f) for f in facts] == ["R(a, a)", "S(a)", "S(b)"]

    def test_str_mentions_inactive(self):
        padded = inst("S(a)").with_domain({Const("a"), Const("b")})
        assert "b" in str(padded)
