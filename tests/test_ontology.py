"""Unit tests for ontology presentations."""

import pytest

from repro import AxiomaticOntology, FiniteOntology, Instance, Schema, parse_tgds
from repro.dependencies import TGDClass, all_in_class
from repro.lang import Const, parse_egd

SCHEMA = Schema.of(("R", 1), ("S", 1))


def inst(text: str) -> Instance:
    return Instance.parse(text, SCHEMA)


class TestAxiomaticOntology:
    def setup_method(self):
        self.sigma = parse_tgds("R(x) -> S(x)", SCHEMA)
        self.ontology = AxiomaticOntology(self.sigma, schema=SCHEMA)

    def test_membership(self):
        assert self.ontology.contains(inst("R(a). S(a)"))
        assert not self.ontology.contains(inst("R(a)"))
        assert inst("S(a)") in self.ontology

    def test_empty_instance_is_model(self):
        assert self.ontology.contains(Instance.empty(SCHEMA))

    def test_members_enumeration(self):
        members = list(self.ontology.members(1))
        # domain {}: 1 member; domain {a0}: subsets of {R(a0), S(a0)}
        # satisfying R -> S: {}, {S}, {R, S} -> 3 members.
        assert len(members) == 4

    def test_supersets_extend_anchor(self):
        anchor = inst("R(a)")
        supersets = list(self.ontology.supersets_of(anchor, 0))
        assert supersets
        for sup in supersets:
            assert anchor.is_subset_of(sup)
            assert self.ontology.contains(sup)

    def test_supersets_are_minimal_members(self):
        # Only ⊆-minimal members are offered (sound for witness search:
        # embedding success is antitone in ⊆).
        anchor = inst("R(a)")
        witnesses = list(self.ontology.supersets_of(anchor, 1))
        facts = [w.facts() for w in witnesses]
        for i, a in enumerate(facts):
            for j, b in enumerate(facts):
                assert i == j or not a < b

    def test_chase_witness_offered_first(self):
        anchor = inst("R(a)")
        first = next(iter(self.ontology.supersets_of(anchor, 0)))
        assert anchor.is_subset_of(first)
        assert self.ontology.contains(first)

    def test_membership_over_padded_schema_instance(self):
        big = SCHEMA.extend(("X", 1))
        assert self.ontology.contains(Instance.parse("S(a). X(a)", big))

    def test_presentation_class(self):
        assert all_in_class(self.ontology.tgds, TGDClass.LINEAR)
        assert self.ontology.is_tgd_ontology_presentation()
        assert self.ontology.tgd_class_width() == (1, 0)

    def test_mixed_presentation(self):
        mixed = AxiomaticOntology(
            list(self.sigma) + [parse_egd("R(x), S(x) -> x = x", SCHEMA)]
        )
        assert not mixed.is_tgd_ontology_presentation()

    def test_schema_inferred_from_dependencies(self):
        ontology = AxiomaticOntology(parse_tgds("R(x) -> S(x)"))
        assert set(r.name for r in ontology.schema) == {"R", "S"}


class TestFiniteOntology:
    def setup_method(self):
        self.seed = inst("R(a). S(a)")
        self.ontology = FiniteOntology([self.seed, Instance.empty(SCHEMA)])

    def test_membership_up_to_isomorphism(self):
        assert self.ontology.contains(inst("R(z). S(z)"))
        assert self.ontology.contains(Instance.empty(SCHEMA))
        assert not self.ontology.contains(inst("R(a)"))

    def test_members_lists_isomorphic_copies(self):
        members = list(self.ontology.members(1))
        assert inst("R(a0). S(a0)").shrink_domain() in [
            m.shrink_domain() for m in members
        ]

    def test_supersets_rename_seeds_onto_anchor(self):
        anchor = inst("R(q)")
        witnesses = list(self.ontology.supersets_of(anchor, 1))
        assert witnesses
        for witness in witnesses:
            assert anchor.is_subset_of(witness)

    def test_supersets_budget_excludes_large_seeds(self):
        big_seed = inst("R(a). S(a). R(b). S(b). R(c). S(c)")
        ontology = FiniteOntology([big_seed])
        anchor = inst("R(q)")
        assert list(ontology.supersets_of(anchor, 0)) == []
        assert list(ontology.supersets_of(anchor, 2))

    def test_empty_needs_schema(self):
        with pytest.raises(ValueError):
            FiniteOntology([])
        assert FiniteOntology([], schema=SCHEMA).schema == SCHEMA

    def test_seed_schema_must_match(self):
        other = Instance.parse("R(a)", Schema.of(("R", 1)))
        with pytest.raises(ValueError):
            FiniteOntology([self.seed, other])

    def test_isomorphism_closure_semantics(self):
        # a seed with 2 elements has copies over any 2 fresh names
        seeds = [inst("R(a). S(b)")]
        ontology = FiniteOntology(seeds)
        assert ontology.contains(inst("R(u). S(w)"))
        assert not ontology.contains(inst("R(u). S(u)"))
