"""Unit tests for the Theorem 4.1 and Theorem 5.6 synthesis pipelines."""

import pytest

from repro import AxiomaticOntology, FiniteOntology, Instance, Schema, parse_tgds
from repro.entailment import equivalent
from repro.synthesis import (
    diagram_dd,
    synthesize_full_tgds,
    synthesize_tgds,
    synthesize_via_edds,
    valid_in_ontology,
)

SCHEMA = Schema.of(("R", 1), ("S", 1))
BINARY = Schema.of(("E", 2), ("V", 1))


def axiomatic(text: str, schema=SCHEMA) -> AxiomaticOntology:
    return AxiomaticOntology(parse_tgds(text, schema), schema=schema)


class TestDirectSynthesis:
    def test_recovers_simple_inclusion(self):
        ontology = axiomatic("R(x) -> S(x)")
        result = synthesize_tgds(ontology, 1, 0)
        assert result.verified
        assert equivalent(result.tgds, parse_tgds("R(x) -> S(x)", SCHEMA)).is_true

    def test_recovers_existential_rule(self):
        ontology = axiomatic("V(x) -> exists z . E(x, z)", BINARY)
        result = synthesize_tgds(
            ontology, 1, 1, member_domain_bound=2, verify_domain_bound=2,
            max_body_atoms=1,
        )
        assert result.verified
        assert equivalent(
            result.tgds,
            parse_tgds("V(x) -> exists z . E(x, z)", BINARY),
        ).is_true

    def test_candidates_counted(self):
        ontology = axiomatic("R(x) -> S(x)")
        result = synthesize_tgds(ontology, 1, 0)
        assert result.candidates_considered >= len(result.tgds) > 0

    def test_non_tgd_ontology_fails_verification(self):
        # "R non-empty" is isomorphism-closed but not a TGD-ontology
        # (not closed under... criticality holds; it's not domain-independent
        # closed under products? it is! but it's not closed under
        # subinstances/locality).  Verification must catch the mismatch.
        seeds = [Instance.parse("R(a)", SCHEMA)]
        ontology = FiniteOntology(seeds)
        result = synthesize_tgds(ontology, 1, 0, verify_domain_bound=2)
        assert not result.verified
        assert result.mismatches

    def test_result_ontology_wrapper(self):
        ontology = axiomatic("R(x) -> S(x)")
        result = synthesize_tgds(ontology, 1, 0)
        assert result.ontology.contains(Instance.parse("S(a)", SCHEMA))

    def test_valid_in_ontology_helper(self):
        ontology = axiomatic("R(x) -> S(x)")
        good = parse_tgds("R(x) -> S(x)", SCHEMA)[0]
        bad = parse_tgds("S(x) -> R(x)", SCHEMA)[0]
        assert valid_in_ontology(good, ontology, 2)
        assert not valid_in_ontology(bad, ontology, 2)


class TestEddPipeline:
    def test_steps_shrink(self):
        ontology = axiomatic("R(x) -> S(x)")
        result = synthesize_via_edds(ontology, 1, 0, max_disjuncts=2)
        assert len(result.sigma_vee) >= len(result.sigma_exists_eq)
        assert len(result.sigma_exists_eq) >= len(result.sigma_exists)

    def test_sigma_exists_equivalent_to_input(self):
        ontology = axiomatic("R(x) -> S(x)")
        result = synthesize_via_edds(ontology, 1, 0)
        assert result.verified
        assert equivalent(
            result.sigma_exists, parse_tgds("R(x) -> S(x)", SCHEMA)
        ).is_true

    def test_sigma_vee_members_valid(self):
        ontology = axiomatic("R(x) -> S(x)")
        result = synthesize_via_edds(ontology, 1, 0)
        for edd in result.sigma_vee:
            assert valid_in_ontology(edd, ontology, 2)

    def test_egds_filtered_in_step_3(self):
        # Step 3 (Lemma 4.9): for a TGD-ontology the egds in Σ^{∃,=} are
        # trivial (criticality kills non-trivial ones) — so dropping them
        # preserves equivalence, which `verified` certifies.
        ontology = axiomatic("R(x) -> S(x)")
        result = synthesize_via_edds(ontology, 2, 0, max_body_atoms=2)
        assert result.verified


class TestFullSynthesis:
    def test_theorem_5_6_pipeline(self):
        ontology = axiomatic("R(x) -> S(x)")
        result = synthesize_full_tgds(ontology, 1)
        assert result.verified
        assert equivalent(
            result.full_tgds, parse_tgds("R(x) -> S(x)", SCHEMA)
        ).is_true

    def test_existential_ontology_not_full_axiomatizable(self):
        ontology = axiomatic("V(x) -> exists z . E(x, z)", BINARY)
        result = synthesize_full_tgds(
            ontology, 2, member_domain_bound=2, verify_domain_bound=1,
            max_body_atoms=1,
        )
        assert not result.verified  # Corollary 5.1: needs (n, 0)-locality

    def test_diagram_dd_shape(self):
        instance = Instance.parse("R(a). R(b). S(b)", SCHEMA)
        dd = diagram_dd(instance)
        assert dd.is_dd
        assert len(dd.body) == 3
        assert not dd.satisfied_by(instance)

    def test_diagram_dd_requires_live_domain(self):
        padded = Instance.parse("R(a)", SCHEMA).with_domain(
            {a for a in Instance.parse("R(a). S(b)", SCHEMA).domain}
        )
        with pytest.raises(ValueError):
            diagram_dd(padded)

    def test_diagram_dd_requires_nonempty(self):
        with pytest.raises(ValueError):
            diagram_dd(Instance.empty(SCHEMA))

    def test_diagram_dd_of_critical_instance_rejected(self):
        from repro.instances import critical_instance

        with pytest.raises(ValueError):
            diagram_dd(critical_instance(Schema.of(("R", 1)), 1))


class TestDiagramBasedFullSynthesis:
    def test_lemma_b2_construction(self):
        from repro.synthesis import synthesize_full_via_diagrams

        ontology = axiomatic("R(x) -> S(x)")
        dds, verified = synthesize_full_via_diagrams(ontology, 1)
        assert verified
        assert dds  # R(a) alone is a 1-element non-member

    def test_diagram_route_fails_for_existential(self):
        from repro.synthesis import synthesize_full_via_diagrams

        ontology = axiomatic("V(x) -> exists z . E(x, z)", BINARY)
        __, verified = synthesize_full_via_diagrams(
            ontology, 1, verify_domain_bound=2
        )
        assert not verified  # not an FTGD-ontology


class TestVerifyAxiomatization:
    """The bounded model comparison the pipelines end with is public."""

    def test_verify_axiomatization_exposed(self):
        from repro.synthesis import verify_axiomatization

        ontology = axiomatic("R(x) -> S(x)")
        rules = tuple(parse_tgds("R(x) -> S(x)", SCHEMA))
        ok, mismatches = verify_axiomatization(ontology, rules, 2)
        assert ok and mismatches == ()
        ok, mismatches = verify_axiomatization(ontology, (), 2)
        assert not ok and mismatches
