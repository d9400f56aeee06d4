"""Unit tests for critical instances and duplicating extensions,
including the paper's Example 5.2."""

import pytest

from repro import Instance, Schema
from repro.instances import (
    all_non_oblivious_duplicating_extensions,
    critical_instance,
    critical_instance_over,
    non_oblivious_duplicating_extension,
    oblivious_duplicating_extension,
)
from repro.instances.instance import InstanceError
from repro.lang import Const, Fact
from tests.oracles.critical import is_critical


class TestCriticalInstances:
    def test_k_critical_size(self):
        schema = Schema.of(("R", 2), ("S", 1))
        crit = critical_instance(schema, 3)
        assert len(crit.domain) == 3
        assert len(crit.tuples("R")) == 9
        assert len(crit.tuples("S")) == 3
        assert is_critical(crit)

    def test_paper_example_2_critical(self):
        # Section 3.1's example: binary R over {c, d} has all four tuples.
        schema = Schema.of(("R", 2))
        crit = critical_instance_over(schema, [Const("c"), Const("d")])
        assert crit == Instance.parse("R(c, c). R(c, d). R(d, c). R(d, d)", schema)

    def test_zero_size_rejected(self):
        with pytest.raises(InstanceError):
            critical_instance(Schema.of(("R", 1)), 0)

    def test_zero_ary_relation_included(self):
        schema = Schema.of(("Aux", 0), ("S", 1))
        crit = critical_instance(schema, 1)
        assert crit.tuples("Aux") == frozenset({()})

    def test_every_tgd_satisfied_by_critical(self, rng):
        # Lemma 3.2's engine: the critical instance satisfies every tgd.
        from repro.workloads import random_schema, random_tgd_set

        schema = random_schema(rng, relations=3, max_arity=2)
        tgds = random_tgd_set(rng, schema, 5)
        crit = critical_instance(schema, 2)
        assert all(t.satisfied_by(crit) for t in tgds)


class TestDuplicatingExtensions:
    SCHEMA = Schema.of(("R", 2), ("S", 2), ("T", 2))

    def example(self) -> Instance:
        return Instance.parse("R(a, b). S(b, a). T(a, a)", self.SCHEMA)

    def test_oblivious_follows_makowsky_vardi(self):
        # facts(J) = facts(I) ∪ h(facts(I)) with h renaming a -> c wholesale.
        ext = oblivious_duplicating_extension(
            self.example(), Const("a"), Const("c")
        )
        expected = Instance.parse(
            "R(a, b). S(b, a). T(a, a). R(c, b). S(b, c). T(c, c)",
            self.SCHEMA,
        )
        assert ext.facts() == expected.facts()

    def test_example_5_2_oblivious_breaks_full_tgd(self, example_52_tgd):
        # The crux of Example 5.2: the oblivious extension violates σ.
        ext = oblivious_duplicating_extension(
            self.example(), Const("a"), Const("c")
        )
        assert example_52_tgd.satisfied_by(self.example())
        assert not example_52_tgd.satisfied_by(ext)

    def test_non_oblivious_includes_mixed_unmergings(self):
        # The paper's "valid duplicating extension": T(a,c), T(c,a), T(c,c)
        # all appear because occurrences of a in T(a,a) split independently.
        ext = non_oblivious_duplicating_extension(
            self.example(), Const("a"), Const("c")
        )
        expected = Instance.parse(
            "R(a, b). S(b, a). T(a, a). "
            "R(c, b). S(b, c). T(a, c). T(c, a). T(c, c)",
            self.SCHEMA,
        )
        assert ext.facts() == expected.facts()

    def test_example_5_2_non_oblivious_preserves_full_tgd(self, example_52_tgd):
        ext = non_oblivious_duplicating_extension(
            self.example(), Const("a"), Const("c")
        )
        assert example_52_tgd.satisfied_by(ext)

    def test_collapse_recovers_original(self):
        # Definition: R(t̄) ∈ J iff h(R(t̄)) ∈ I with h(d) = c.
        original = self.example()
        ext = non_oblivious_duplicating_extension(
            original, Const("a"), Const("c")
        )
        collapsed = ext.rename({Const("c"): Const("a")})
        assert collapsed.facts() == original.facts()

    def test_source_must_exist(self):
        with pytest.raises(InstanceError):
            non_oblivious_duplicating_extension(
                self.example(), Const("zzz"), Const("c")
            )

    def test_fresh_must_be_new(self):
        with pytest.raises(InstanceError):
            non_oblivious_duplicating_extension(
                self.example(), Const("a"), Const("b")
            )

    def test_all_extensions_cover_every_element(self):
        pairs = list(all_non_oblivious_duplicating_extensions(self.example()))
        assert {src for src, __ in pairs} == set(self.example().domain)

    def test_duplicating_element_without_occurrences(self):
        schema = Schema.of(("S", 1))
        base = Instance.from_facts(
            schema, [Fact(schema.relation("S"), (Const("a"),))],
            extra_domain=[Const("dead")],
        )
        ext = non_oblivious_duplicating_extension(
            base, Const("dead"), Const("fresh")
        )
        assert ext.facts() == base.facts()
        assert Const("fresh") in ext.domain
