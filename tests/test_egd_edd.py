"""Unit tests for EGDs and EDDs."""

import pytest

from repro import Instance, Schema
from repro.dependencies import (
    EDD,
    EGD,
    DependencyError,
    EqualityDisjunct,
    ExistentialDisjunct,
)
from repro.lang import Var, parse_dependency, parse_edd, parse_egd

SCHEMA = Schema.of(("E", 2), ("P", 1), ("Q", 1))


def inst(text: str) -> Instance:
    return Instance.parse(text, SCHEMA)


class TestEGD:
    def test_functionality_constraint(self):
        egd = parse_egd("E(x, y), E(x, z) -> y = z", SCHEMA)
        assert egd.satisfied_by(inst("E(a, b)"))
        assert not egd.satisfied_by(inst("E(a, b). E(a, c)"))

    def test_trivial_egd(self):
        egd = parse_egd("E(x, y) -> x = x", SCHEMA)
        assert egd.is_trivial
        assert egd.satisfied_by(inst("E(a, b). E(c, d)"))

    def test_body_required(self):
        with pytest.raises(DependencyError):
            EGD((), Var("x"), Var("x"))

    def test_equality_vars_must_occur_in_body(self):
        from repro.lang import Atom

        with pytest.raises(DependencyError):
            EGD(
                (Atom(SCHEMA.relation("P"), (Var("x"),)),),
                Var("x"),
                Var("q"),
            )

    def test_violations_listed(self):
        egd = parse_egd("E(x, y), E(x, z) -> y = z", SCHEMA)
        assert len(egd.violations(inst("E(a, b). E(a, c)"))) == 2  # (b,c),(c,b)

    def test_width(self):
        egd = parse_egd("E(x, y), E(x, z) -> y = z", SCHEMA)
        assert egd.width == (3, 0)


class TestEDD:
    def test_disjunction_semantics(self):
        edd = parse_edd("P(x) -> Q(x) | exists z . E(x, z)", SCHEMA)
        assert edd.satisfied_by(inst("P(a). Q(a)"))
        assert edd.satisfied_by(inst("P(a). E(a, b)"))
        assert not edd.satisfied_by(inst("P(a)"))

    def test_equality_disjunct(self):
        edd = parse_edd("E(x, y) -> x = y | Q(x)", SCHEMA)
        assert edd.satisfied_by(inst("E(a, a)"))
        assert edd.satisfied_by(inst("E(a, b). Q(a)"))
        assert not edd.satisfied_by(inst("E(a, b)"))

    def test_every_trigger_must_find_a_disjunct(self):
        edd = parse_edd("P(x) -> Q(x)", SCHEMA)
        assert not edd.satisfied_by(inst("P(a). P(b). Q(a)"))

    def test_is_tgd_and_conversion(self):
        edd = parse_edd("P(x) -> exists z . E(x, z)", SCHEMA)
        assert edd.is_tgd and not edd.is_egd
        assert str(edd.as_tgd()) == "P(x) -> exists z . E(x, z)"

    def test_is_egd_and_conversion(self):
        edd = parse_edd("E(x, y) -> x = y", SCHEMA)
        assert edd.is_egd
        assert edd.disjuncts == (EqualityDisjunct(Var("x"), Var("y")),)

    def test_wrong_conversion_raises(self):
        edd = parse_edd("P(x) -> Q(x) | x = x", SCHEMA)
        with pytest.raises(DependencyError):
            edd.as_tgd()

    def test_is_dd(self):
        assert parse_edd("P(x) -> Q(x) | x = x", SCHEMA).is_dd
        assert not parse_edd("P(x) -> exists z . E(x, z)", SCHEMA).is_dd
        assert not parse_edd("P(x) -> Q(x), P(x)", SCHEMA).is_dd

    def test_width_uses_max_disjunct_existentials(self):
        edd = parse_edd(
            "P(x) -> exists z . E(x, z) | exists u, v . E(u, v)", SCHEMA
        )
        assert edd.width == (1, 2)

    def test_implicants(self):
        edd = parse_edd("P(x) -> Q(x) | x = x", SCHEMA)
        implicants = [EDD(edd.body, (d,)) for d in edd.disjuncts]
        assert len(implicants) == 2
        assert implicants[0].is_tgd and implicants[1].is_egd

    def test_needs_a_disjunct(self):
        with pytest.raises(DependencyError):
            EDD((), ())

    def test_equality_vars_must_be_universal(self):
        from repro.lang import Atom

        with pytest.raises(DependencyError):
            EDD(
                (Atom(SCHEMA.relation("P"), (Var("x"),)),),
                (EqualityDisjunct(Var("x"), Var("w")),),
            )

    def test_empty_body_edd(self):
        edd = parse_edd("-> exists z . P(z)", SCHEMA)
        assert not edd.satisfied_by(Instance.empty(SCHEMA))
        assert edd.satisfied_by(inst("P(a)"))

    def test_as_edd_roundtrips(self):
        dep = parse_dependency("P(x) -> Q(x)", SCHEMA)
        assert dep.as_edd().as_tgd() == dep
        egd = parse_egd("E(x, y) -> x = y", SCHEMA)
        edd = egd.as_edd()
        assert edd.body == egd.body
        assert edd.disjuncts == (EqualityDisjunct(egd.lhs, egd.rhs),)
