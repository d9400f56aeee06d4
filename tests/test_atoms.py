"""Unit tests for repro.lang.atoms."""

import pytest

from repro.lang.atoms import Atom, Fact, atoms_variables
from repro.lang.schema import Relation, SchemaError
from repro.lang.terms import Const, Null, Var

R2 = Relation("R", 2)
S1 = Relation("S", 1)


class TestAtom:
    def test_arity_enforced(self):
        with pytest.raises(SchemaError):
            Atom(R2, (Var("x"),))

    def test_args_must_be_terms(self):
        with pytest.raises(SchemaError):
            Atom(S1, (Null(0),))  # nulls live in facts, not atoms

    def test_variables_first_occurrence_order(self):
        atom = Atom(R2, (Var("y"), Var("x")))
        assert atom.variables() == (Var("y"), Var("x"))

    def test_repeated_variable_reported_once(self):
        atom = Atom(R2, (Var("x"), Var("x")))
        assert atom.variables() == (Var("x"),)

    def test_constants(self):
        atom = Atom(R2, (Const("a"), Var("x")))
        assert atom.constants() == (Const("a"),)

    def test_is_ground(self):
        assert Atom(R2, (Const("a"), Const("b"))).variables() == ()
        assert Atom(R2, (Const("a"), Var("x"))).variables() == (Var("x"),)

    def test_substitute_keeps_unmapped(self):
        atom = Atom(R2, (Var("x"), Var("y")))
        result = atom.substitute({Var("x"): Var("z")})
        assert result == Atom(R2, (Var("z"), Var("y")))

    def test_substitute_does_not_touch_constants(self):
        atom = Atom(R2, (Const("a"), Var("x")))
        result = atom.substitute({Var("x"): Const("b")})
        assert result == Atom(R2, (Const("a"), Const("b")))

    def test_to_fact(self):
        atom = Atom(R2, (Var("x"), Const("b")))
        fact = atom.to_fact({Var("x"): Const("a")})
        assert fact == Fact(R2, (Const("a"), Const("b")))

    def test_to_fact_unbound_raises(self):
        with pytest.raises(ValueError):
            Atom(S1, (Var("x"),)).to_fact({})

    def test_display(self):
        assert str(Atom(R2, (Var("x"), Const("a")))) == "R(?x, a)"

    def test_ordering_deterministic(self):
        a = Atom(S1, (Var("x"),))
        b = Atom(R2, (Var("x"), Var("y")))
        assert sorted([a, b])[0] == b  # R < S by name


class TestFact:
    def test_arity_enforced(self):
        with pytest.raises(SchemaError):
            Fact(R2, (Const("a"),))

    def test_rename(self):
        fact = Fact(R2, (Const("a"), Const("b")))
        renamed = fact.rename({Const("a"): Const("c")})
        assert renamed == Fact(R2, (Const("c"), Const("b")))

    def test_nulls_allowed_as_elements(self):
        fact = Fact(S1, (Null(0),))
        assert fact.elements == (Null(0),)

    def test_to_atom_roundtrip(self):
        fact = Fact(R2, (Const("a"), Const("b")))
        assert Atom(fact.relation, fact.elements).to_fact() == fact

    def test_to_atom_rejects_nulls(self):
        with pytest.raises(ValueError):
            Atom(S1, (Null(0),))

    def test_zero_arity_fact(self):
        aux = Relation("Aux", 0)
        assert str(Fact(aux, ())) == "Aux()"


class TestConjunctionHelpers:
    def test_atoms_variables_dedup_across_atoms(self):
        atoms = [
            Atom(R2, (Var("x"), Var("y"))),
            Atom(S1, (Var("x"),)),
        ]
        assert atoms_variables(atoms) == (Var("x"), Var("y"))

    def test_atoms_constants(self):
        atoms = [Atom(R2, (Const("a"), Var("x")))]
        assert [atom.constants() for atom in atoms] == [(Const("a"),)]
        assert atoms_variables(atoms) == (Var("x"),)
