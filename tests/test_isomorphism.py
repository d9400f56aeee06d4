"""Unit tests for isomorphism testing."""

from repro import Instance, Schema
from repro.homomorphisms import (
    all_isomorphisms,
    are_isomorphic,
    find_isomorphism,
)
from repro.lang import Const

SCHEMA = Schema.of(("E", 2),)


def inst(text: str) -> Instance:
    return Instance.parse(text, SCHEMA)


class TestIsomorphism:
    def test_renamed_copy_isomorphic(self):
        a = inst("E(a, b). E(b, c)")
        b = inst("E(x, y). E(y, z)")
        assert are_isomorphic(a, b)

    def test_isomorphism_is_a_bijection_preserving_facts(self):
        a = inst("E(a, b). E(b, c)")
        b = inst("E(x, y). E(y, z)")
        iso = find_isomorphism(a, b)
        assert iso[Const("a")] == Const("x")
        assert a.rename(iso) == b.shrink_domain() or a.rename(iso).facts() == b.facts()

    def test_different_fact_counts_not_isomorphic(self):
        assert not are_isomorphic(inst("E(a, b)"), inst("E(a, b). E(b, a)"))

    def test_same_counts_different_shape_not_isomorphic(self):
        path = inst("E(a, b). E(b, c)")
        fork = inst("E(a, b). E(a, c)")
        assert not are_isomorphic(path, fork)

    def test_loop_vs_edge(self):
        assert not are_isomorphic(inst("E(o, o)"), inst("E(a, b)"))

    def test_inactive_elements_counted(self):
        a = inst("E(a, b)")
        padded = a.with_domain(set(a.domain) | {Const("dead")})
        assert not are_isomorphic(a, padded)
        assert are_isomorphic(
            padded, inst("E(x, y)").with_domain({Const("x"), Const("y"), Const("q")})
        )

    def test_triangle_automorphisms(self):
        triangle = inst("E(a, b). E(b, c). E(c, a)")
        assert len(list(all_isomorphisms(triangle, triangle))) == 3  # rotations

    def test_empty_instances_isomorphic(self):
        assert are_isomorphic(Instance.empty(SCHEMA), Instance.empty(SCHEMA))

