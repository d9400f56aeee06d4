"""Unit tests for (n, m)-locality and its refinements — the paper's
central new property (Definitions 3.5, 6.1, 7.1, 8.1)."""

import pytest

from repro import AxiomaticOntology, FiniteOntology, Instance, Schema, parse_tgds
from repro.instances import all_instances_up_to
from repro.properties import (
    LocalityMode,
    anchors_for,
    locality_report,
    locally_embeddable,
    neighbourhood_embeds,
)

UNARY3 = Schema.of(("R", 1), ("P", 1), ("T", 1))
BINARY = Schema.of(("R", 2), ("S", 1))


def axiomatic(text: str, schema) -> AxiomaticOntology:
    return AxiomaticOntology(parse_tgds(text, schema), schema=schema)


class TestAnchors:
    HOST = Instance.parse("R(a, b). S(a). S(c)", BINARY)

    def test_general_anchors_are_subinstances(self):
        for anchor in anchors_for(self.HOST, 2, LocalityMode.GENERAL):
            assert anchor.instance.is_subinstance_of(self.HOST)
            assert anchor.focus == anchor.instance.active_domain

    def test_linear_anchors_at_most_one_fact(self):
        anchors = list(anchors_for(self.HOST, 2, LocalityMode.LINEAR))
        assert all(a.instance.fact_count() <= 1 for a in anchors)
        # empty + 3 single facts
        assert len(anchors) == 4

    def test_linear_anchor_respects_n(self):
        anchors = list(anchors_for(self.HOST, 1, LocalityMode.LINEAR))
        # R(a, b) has 2 active elements > 1 and is excluded.
        assert len(anchors) == 3

    def test_guarded_anchors_are_guarded(self):
        for anchor in anchors_for(self.HOST, 2, LocalityMode.GUARDED):
            assert anchor.instance.is_guarded()

    def test_frontier_guarded_anchor_focus_varies(self):
        anchors = list(
            anchors_for(self.HOST, 2, LocalityMode.FRONTIER_GUARDED)
        )
        assert any(a.focus != a.instance.active_domain for a in anchors)
        for anchor in anchors:
            assert anchor.instance.is_guarded_relative_to(anchor.focus)


class TestNeighbourhoodEmbeds:
    def test_identity_embedding(self):
        host = Instance.parse("S(a). S(b)", BINARY)
        assert neighbourhood_embeds(host, frozenset({}), 2, host)

    def test_extra_material_blocks_embedding(self):
        witness = Instance.parse("S(a). R(a, a)", BINARY)
        target = Instance.parse("S(a)", BINARY)
        assert not neighbourhood_embeds(
            witness, frozenset({witness.domain.__iter__().__next__()}), 1, target
        )


class TestSection91Separations:
    """The exact computations of Section 9.1."""

    def test_linear_embeddability_of_sigma_g(self):
        sigma_g = axiomatic("R(x), P(x) -> T(x)", UNARY3)
        witness = Instance.parse("R(c). P(c)", UNARY3)
        assert locally_embeddable(
            sigma_g, witness, 1, 0, mode=LocalityMode.LINEAR
        )
        assert not sigma_g.contains(witness)

    def test_sigma_g_not_generally_embeddable_in_witness(self):
        # With K ranging over ALL subinstances, K = {R(c), P(c)} itself
        # forces T(c) — so general (1, 0)-local embeddability fails and
        # general locality is NOT refuted (Σ_G is (1,0)... it IS a tgd
        # ontology, hence (2,0)-local; embed check with n=1 suffices here).
        sigma_g = axiomatic("R(x), P(x) -> T(x)", UNARY3)
        witness = Instance.parse("R(c). P(c)", UNARY3)
        assert not locally_embeddable(
            sigma_g, witness, 1, 0, mode=LocalityMode.GENERAL
        )

    def test_guarded_embeddability_of_sigma_f(self):
        sigma_f = axiomatic("R(x), P(y) -> T(x)", UNARY3)
        witness = Instance.parse("R(c). P(d)", UNARY3)
        assert locally_embeddable(
            sigma_f, witness, 2, 0, mode=LocalityMode.GUARDED
        )
        assert not sigma_f.contains(witness)

    def test_sigma_f_guarded_anchors_miss_the_join(self):
        # the violating pair {R(c), P(d)} is not a guarded subinstance,
        # which is exactly why guarded locality fails to force T(c).
        witness = Instance.parse("R(c). P(d)", UNARY3)
        anchors = list(anchors_for(witness, 2, LocalityMode.GUARDED))
        assert all(a.instance.fact_count() <= 1 for a in anchors)


class TestLocalityOfTgdOntologies:
    """Lemma 3.6: every TGD_{n,m}-ontology is (n, m)-local — checked
    exhaustively over small instance spaces."""

    def test_full_linear_ontology(self):
        ontology = axiomatic("R(x, y) -> S(x)", BINARY)
        space = list(all_instances_up_to(BINARY, 2))
        assert locality_report(ontology, 2, 0, space).holds

    def test_existential_ontology(self):
        ontology = axiomatic("S(x) -> exists z . R(x, z)", BINARY)
        space = list(all_instances_up_to(BINARY, 2))
        assert locality_report(ontology, 1, 1, space).holds

    def test_guarded_join_ontology_is_2_0_local(self):
        ontology = axiomatic("R(x), P(x) -> T(x)", UNARY3)
        space = list(all_instances_up_to(UNARY3, 2))
        assert locality_report(ontology, 2, 0, space).holds

    def test_linear_locality_fails_for_guarded_join(self):
        # Linearization Lemma direction: Σ_G is not linear (n, m)-local
        # for its own width, certifying non-linearizability.
        ontology = axiomatic("R(x), P(x) -> T(x)", UNARY3)
        space = list(all_instances_up_to(UNARY3, 1))
        report = locality_report(
            ontology, 2, 0, space, mode=LocalityMode.LINEAR
        )
        assert not report.holds

    def test_report_names_the_earliest_counterexample(self):
        # the battery stops at the first violation of the space's order
        ontology = axiomatic("R(x), P(x) -> T(x)", UNARY3)
        space = list(all_instances_up_to(UNARY3, 1))
        report = locality_report(
            ontology, 1, 0, space, mode=LocalityMode.LINEAR
        )
        violations = [
            index
            for index, instance in enumerate(space)
            if not ontology.contains(instance)
            and locally_embeddable(
                ontology, instance, 1, 0, mode=LocalityMode.LINEAR
            )
        ]
        assert violations
        assert report.counterexample == space[violations[0]]
        assert report.checked == violations[0] + 1

    def test_guarded_locality_fails_for_fg_witness(self):
        ontology = axiomatic("R(x), P(y) -> T(x)", UNARY3)
        space = list(all_instances_up_to(UNARY3, 2))
        report = locality_report(
            ontology, 2, 0, space, mode=LocalityMode.GUARDED
        )
        assert not report.holds

    def test_linear_ontology_is_linear_local(self):
        ontology = axiomatic("R(x) -> T(x)", UNARY3)
        space = list(all_instances_up_to(UNARY3, 2))
        assert locality_report(
            ontology, 1, 0, space, mode=LocalityMode.LINEAR
        ).holds

    def test_guarded_ontology_is_guarded_local(self):
        ontology = axiomatic("R(x), P(x) -> T(x)", UNARY3)
        space = list(all_instances_up_to(UNARY3, 2))
        assert locality_report(
            ontology, 2, 0, space, mode=LocalityMode.GUARDED
        ).holds

    def test_fg_ontology_is_fg_local(self):
        ontology = axiomatic("R(x), P(y) -> T(x)", UNARY3)
        space = list(all_instances_up_to(UNARY3, 2))
        assert locality_report(
            ontology, 2, 0, space, mode=LocalityMode.FRONTIER_GUARDED
        ).holds


class TestLocalityImplications:
    def test_linear_embeddability_weaker_than_general(self):
        # Lemma 6.2's contrapositive at the embeddability level: general
        # embeddability implies linear embeddability (fewer anchors).
        ontology = axiomatic("R(x) -> T(x)", UNARY3)
        for instance in all_instances_up_to(UNARY3, 1):
            if locally_embeddable(
                ontology, instance, 1, 0, mode=LocalityMode.GENERAL
            ):
                assert locally_embeddable(
                    ontology, instance, 1, 0, mode=LocalityMode.LINEAR
                )

    def test_finite_ontology_witness_search(self):
        # FiniteOntology supersets: embeddability via renamed seeds.
        seeds = [
            Instance.parse("R(c). T(c)", UNARY3),
            Instance.empty(UNARY3),
        ]
        ontology = FiniteOntology(seeds)
        # two disjoint copies of the seed: every ≤1-fact anchor extends to
        # a renamed seed embedding back, yet the doubled host is not a
        # member — the finite class is not linear (1, 0)-local.
        doubled = Instance.parse("R(a). T(a). R(b). T(b)", UNARY3)
        assert not ontology.contains(doubled)
        assert locally_embeddable(
            ontology, doubled, 1, 0, mode=LocalityMode.LINEAR,
            witness_extra=2,
        )
        # a host with a P-fact has an anchor no member can contain.
        with_p = Instance.parse("R(a). T(a). P(b)", UNARY3)
        assert not locally_embeddable(
            ontology, with_p, 1, 0, mode=LocalityMode.LINEAR,
            witness_extra=2,
        )

