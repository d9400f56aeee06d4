"""Unit tests for the homomorphism engine."""

import sys

import pytest

from repro import Instance, Schema
from repro.homomorphisms import (
    all_extensions_of,
    all_homomorphisms,
    find_extension,
    find_homomorphism,
    satisfies_atoms,
)
from repro.lang import Const, Var, parse_atoms
from tests.oracles.interpreted import interpreted_search

SCHEMA = Schema.of(("E", 2), ("V", 1))


@pytest.fixture(autouse=True, params=["compiled", "interpreted"])
def plan_mode(request):
    """Run every test in this module under both matchers: the compiled
    join plans and the interpreted test oracle."""
    if request.param == "compiled":
        yield request.param
        return
    with interpreted_search(sys.modules[__name__]):
        yield request.param


def inst(text: str) -> Instance:
    return Instance.parse(text, SCHEMA)


TRIANGLE = inst("E(a, b). E(b, c). E(c, a)")
EDGE = inst("E(u, v)")
LOOP = inst("E(o, o)")


class TestQueryMatching:
    def test_single_atom_all_matches(self):
        atoms = parse_atoms("E(x, y)", SCHEMA)
        assert len(list(all_extensions_of(atoms, TRIANGLE))) == 3

    def test_join_respected(self):
        atoms = parse_atoms("E(x, y), E(y, z)", SCHEMA)
        matches = list(all_extensions_of(atoms, TRIANGLE))
        assert len(matches) == 3  # paths around the triangle

    def test_repeated_variable(self):
        atoms = parse_atoms("E(x, x)", SCHEMA)
        assert find_extension(atoms, TRIANGLE) is None
        assert find_extension(atoms, LOOP) is not None

    def test_constant_must_match_exactly(self):
        from repro.lang.atoms import Atom

        atom = Atom(SCHEMA.relation("E"), (Const("a"), Var("y")))
        match = find_extension([atom], TRIANGLE)
        assert match == {Var("y"): Const("b")}

    def test_partial_assignment_respected(self):
        atoms = parse_atoms("E(x, y)", SCHEMA)
        match = find_extension(atoms, TRIANGLE, {Var("x"): Const("b")})
        assert match[Var("y")] == Const("c")

    def test_conflicting_partial_fails(self):
        atoms = parse_atoms("E(x, y)", SCHEMA)
        assert (
            find_extension(
                atoms, TRIANGLE,
                {Var("x"): Const("a"), Var("y"): Const("c")},
            )
            is None
        )

    def test_empty_conjunction_trivially_matches(self):
        assert satisfies_atoms((), TRIANGLE)

    def test_injective_search(self):
        atoms = parse_atoms("E(x, y)", SCHEMA)
        assert find_extension(atoms, LOOP) is not None
        assert find_extension(atoms, LOOP, injective=True) is None

    def test_cross_relation_join(self):
        host = inst("E(a, b). V(b)")
        atoms = parse_atoms("E(x, y), V(y)", SCHEMA)
        match = find_extension(atoms, host)
        assert match == {Var("x"): Const("a"), Var("y"): Const("b")}


class TestInstanceHomomorphisms:
    def test_triangle_maps_to_loop(self):
        hom = find_homomorphism(TRIANGLE, LOOP)
        assert hom is not None
        assert set(hom.values()) == {Const("o")}

    def test_loop_does_not_map_to_triangle(self):
        assert find_homomorphism(LOOP, TRIANGLE) is None

    def test_edge_maps_to_triangle_six_ways(self):
        # 3 edges x 1 orientation each... an edge maps onto each of the
        # 3 directed edges of the triangle.
        assert len(list(all_homomorphisms(EDGE, TRIANGLE))) == 3

    def test_fixed_elements_respected(self):
        hom = find_homomorphism(
            TRIANGLE, TRIANGLE, fixed={Const("a"): Const("b")}
        )
        assert hom is not None
        assert hom[Const("a")] == Const("b")
        # rotation forced
        assert hom[Const("b")] == Const("c")

    def test_identity_fixing_everything(self):
        fixed = {e: e for e in TRIANGLE.domain}
        hom = find_homomorphism(TRIANGLE, TRIANGLE, fixed=fixed)
        assert hom == fixed

    def test_unsatisfiable_fixing(self):
        host = inst("E(a, b)")
        assert (
            find_homomorphism(host, host, fixed={Const("a"): Const("b")})
            is None
        )

    def test_inactive_elements_mapped_somewhere(self):
        padded = EDGE.with_domain(set(EDGE.domain) | {Const("dead")})
        hom = find_homomorphism(padded, TRIANGLE)
        assert hom is not None and Const("dead") in hom

    def test_empty_source_always_maps(self):
        assert find_homomorphism(Instance.empty(SCHEMA), TRIANGLE) == {}

    def test_nonempty_source_to_empty_target_fails(self):
        assert find_homomorphism(EDGE, Instance.empty(SCHEMA)) is None

    def test_injective_homomorphism(self):
        # A directed 6-cycle wraps twice around the triangle (6 = 2·3),
        # but no injective homomorphism exists (6 > 3 elements).
        hexagon = inst(
            "E(a, b). E(b, c). E(c, d). E(d, e). E(e, f). E(f, a)"
        )
        assert find_homomorphism(hexagon, TRIANGLE) is not None
        assert find_homomorphism(hexagon, TRIANGLE, injective=True) is None

    def test_homs_preserve_facts(self):
        for hom in all_homomorphisms(TRIANGLE, TRIANGLE):
            image = TRIANGLE.rename(hom)
            assert image.is_subset_of(TRIANGLE)
