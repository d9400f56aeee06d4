"""Unit tests for TGDs: shape, classes, satisfaction."""

import dataclasses
import pickle

import pytest

from repro import Instance, Schema, parse_tgd
from repro.dependencies import DependencyError, TGD
from repro.lang import Atom, Const, Relation, Var

SCHEMA = Schema.of(("R", 2), ("S", 1), ("T", 2))


def tgd(text: str) -> TGD:
    return parse_tgd(text, SCHEMA)


class TestShape:
    def test_universal_variables_are_body_variables(self):
        t = tgd("R(x, y), S(y) -> exists z . T(x, z)")
        assert set(t.universal_variables) == {Var("x"), Var("y")}

    def test_frontier(self):
        t = tgd("R(x, y) -> exists z . T(x, z)")
        assert t.frontier == (Var("x"),)

    def test_existential_variables(self):
        t = tgd("R(x, y) -> exists z . T(x, z)")
        assert t.existential_variables == (Var("z"),)

    def test_width(self):
        t = tgd("R(x, y) -> exists z . T(x, z)")
        assert t.width == (2, 1)

    def test_empty_body_width(self):
        t = tgd("-> exists z . S(z)")
        assert t.width == (0, 1)

    def test_head_must_be_nonempty(self):
        with pytest.raises(DependencyError):
            TGD((Atom(SCHEMA.relation("S"), (Var("x"),)),), ())

    def test_constant_free(self):
        with pytest.raises(DependencyError):
            TGD((), (Atom(SCHEMA.relation("S"), (Const("a"),)),))

    def test_at_least_one_variable(self):
        aux = Relation("Aux", 0)
        with pytest.raises(DependencyError):
            TGD((Atom(aux, ()),), (Atom(aux, ()),))

    def test_schema_inferred(self):
        assert set(r.name for r in tgd("R(x, y) -> S(x)").schema) == {"R", "S"}

    def test_variables_are_computed_once(self):
        t = tgd("R(x, y), S(y) -> exists z . T(x, z)")
        assert t.universal_variables is t.universal_variables
        assert t.existential_variables is t.existential_variables

    def test_cached_variables_are_not_state(self):
        """Fields, equality, hashing and the pickled form see only the
        body and the head."""
        t = tgd("R(x, y) -> exists z . T(x, z)")
        fresh = tgd("R(x, y) -> exists z . T(x, z)")
        assert t.existential_variables == (Var("z"),)  # fills the cache
        assert [f.name for f in dataclasses.fields(t)] == ["body", "head"]
        assert t == fresh and hash(t) == hash(fresh)
        assert pickle.dumps(t) == pickle.dumps(fresh)
        revived = pickle.loads(pickle.dumps(t))
        assert revived == t
        assert revived.existential_variables == (Var("z"),)

    def test_frontier_is_computed_once_and_not_pickled(self):
        t = tgd("R(x, y), S(y) -> exists z . T(x, z)")
        assert t.frontier is t.frontier == (Var("x"),)
        revived = pickle.loads(pickle.dumps(t))
        assert revived == t
        assert "frontier" not in vars(revived)
        assert revived.frontier == t.frontier


class TestClasses:
    def test_full(self):
        assert tgd("R(x, y) -> T(y, x)").is_full
        assert not tgd("R(x, y) -> exists z . T(x, z)").is_full

    def test_linear(self):
        assert tgd("R(x, y) -> S(x)").is_linear
        assert tgd("-> exists z . S(z)").is_linear
        assert not tgd("R(x, y), S(x) -> S(y)").is_linear

    def test_guarded(self):
        assert tgd("R(x, y), S(x) -> S(y)").is_guarded  # R(x,y) guards
        assert not tgd("S(x), S(y) -> T(x, y)").is_guarded

    def test_empty_body_guarded(self):
        assert tgd("-> exists z . S(z)").is_guarded

    def test_frontier_guarded(self):
        # body has no single atom with both x and y, but the frontier is
        # just {x}, guarded by S(x)... here by R(x, w).
        t = tgd("R(x, w), S(y) -> S(x)")
        assert not t.is_guarded
        assert t.is_frontier_guarded

    def test_class_inclusions_on_samples(self):
        linear = tgd("R(x, y) -> S(x)")
        assert linear.is_guarded and linear.is_frontier_guarded
        guarded = tgd("R(x, y), S(x) -> S(y)")
        assert guarded.is_frontier_guarded

    def test_full_not_comparable_with_frontier_guarded(self):
        # A full tgd that is not frontier-guarded:
        full = tgd("S(x), S(y) -> T(x, y)")
        assert full.is_full and not full.is_frontier_guarded
        # A frontier-guarded tgd that is not full:
        fg = tgd("R(x, y) -> exists z . T(x, z)")
        assert fg.is_frontier_guarded and not fg.is_full

    def test_guards_listing(self):
        t = tgd("R(x, y), S(x) -> S(y)")
        assert [str(a) for a in t.guards()] == ["R(?x, ?y)"]


class TestSatisfaction:
    def test_satisfied_when_no_trigger(self):
        t = tgd("R(x, y), S(x) -> T(y, y)")
        i = Instance.parse("R(a, b)", SCHEMA)
        assert t.satisfied_by(i)

    def test_violated_trigger(self):
        t = tgd("R(x, y) -> S(y)")
        i = Instance.parse("R(a, b)", SCHEMA)
        assert not t.satisfied_by(i)
        assert len(t.violations(i)) == 1

    def test_existential_witness_found(self):
        t = tgd("S(x) -> exists z . R(x, z)")
        assert t.satisfied_by(Instance.parse("S(a). R(a, b)", SCHEMA))
        assert not t.satisfied_by(Instance.parse("S(a). R(b, a)", SCHEMA))

    def test_empty_body_requires_witness(self):
        t = tgd("-> exists z . S(z)")
        assert not t.satisfied_by(Instance.empty(SCHEMA))
        assert t.satisfied_by(Instance.parse("S(a)", SCHEMA))

    def test_satisfaction_over_super_schema_instance(self):
        big = SCHEMA.extend(("X", 1))
        i = Instance.parse("R(a, b). S(b)", big)
        assert tgd("R(x, y) -> S(y)").satisfied_by(i)

    def test_satisfaction_over_sub_schema_instance(self):
        # Instance lacks T: the tgd head can never be satisfied once
        # triggered, but holds vacuously without triggers.
        i = Instance.parse("S(a)", Schema.of(("S", 1)))
        assert tgd("R(x, y) -> T(x, y)").satisfied_by(i)
        assert not tgd("S(x) -> T(x, x)").satisfied_by(i)


class TestRenaming:
    def test_substitute(self):
        t = tgd("R(x, y) -> S(x)")
        renamed = t.substitute({Var("x"): Var("u"), Var("y"): Var("v")})
        assert str(renamed) == "R(u, v) -> S(u)"

    def test_rename_apart(self):
        t = tgd("R(x, y) -> exists z . T(x, z)")
        fresh = t.rename_apart(t.variables())
        assert not set(fresh.variables()) & set(t.variables())
        assert fresh.width == t.width

    def test_equality_is_syntactic(self):
        assert tgd("R(x, y) -> S(x)") == tgd("R(x, y) -> S(x)")
        assert tgd("R(x, y) -> S(x)") != tgd("R(u, v) -> S(u)")
