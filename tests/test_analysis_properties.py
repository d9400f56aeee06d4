"""Property-based tests for `repro.analysis` (hypothesis).

Two families of universally quantified claims:

* **Fragment explanations agree with the boolean predicates, both
  directions** — for every random tgd and class,
  ``explain_fragment(tgd, cls).member == in_class(tgd, cls)``, and
  every *negative* explanation's witness is confirmed against the
  class's defining violation (the witnessed variable really is missing
  from the witnessed atom / the witnessed atom really is a second body
  atom / the witnessed head atom really contains the existential).

* **The certificate lattice is a chain** — on random tgd sets,
  weak acyclicity implies joint acyclicity implies super-weak
  acyclicity, and `certificate_for` returns the strongest member,
  consistent with the three predicates.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Certificate, TGDClass
from repro.analysis import (
    certificate_for,
    is_jointly_acyclic,
    is_super_weakly_acyclic,
    msa_report,
)
from repro.analysis.fragments import explain_fragment, explain_fragments
from repro.chase import is_weakly_acyclic
from repro.dependencies.classes import in_class
from repro.workloads import random_schema, random_tgd_set

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CLASSES = (
    TGDClass.FULL,
    TGDClass.LINEAR,
    TGDClass.GUARDED,
    TGDClass.FRONTIER_GUARDED,
)


@st.composite
def tgd_sets(draw, max_rules=4):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    schema = random_schema(rng, relations=3, max_arity=3)
    count = draw(st.integers(min_value=1, max_value=max_rules))
    return random_tgd_set(
        rng,
        schema,
        count,
        body_atoms=2,
        head_atoms=2,
        body_variables=3,
        existential_variables=2,
    )


def _confirm_negative_witness(tgd, explanation):
    """Check the witness against the class's defining violation."""
    cls = explanation.cls
    if cls is TGDClass.FULL:
        # The witnessed variable is existential and occurs in the
        # witnessed head atom.
        assert explanation.witness_variable in tgd.existential_variables
        assert explanation.witness_atom in tgd.head
        assert explanation.witness_variable in set(
            explanation.witness_atom.variables()
        )
    elif cls is TGDClass.LINEAR:
        # The witnessed atom is a body atom beyond the first.
        assert explanation.witness_atom in tgd.body[1:]
    else:
        required = (
            tgd.universal_variables
            if cls is TGDClass.GUARDED
            else tgd.frontier
        )
        # The witnessed variable is required but missing from the
        # witnessed body atom — and, since the explanation picked the
        # *widest* atom, no body atom can cover everything.
        assert explanation.witness_variable in required
        assert explanation.witness_atom in tgd.body
        assert explanation.witness_variable not in set(
            explanation.witness_atom.variables()
        )
        assert not any(
            set(required) <= set(atom.variables()) for atom in tgd.body
        )


class TestFragmentExplanations:
    @SETTINGS
    @given(tgd_sets())
    def test_explanations_agree_with_predicates_both_directions(self, sigma):
        for tgd in sigma:
            for cls in CLASSES:
                explanation = explain_fragment(tgd, cls)
                member = in_class(tgd, cls)
                # direction 1: explanation -> predicate
                assert explanation.member == member
                # direction 2: the predicate's verdict is re-derivable
                # from the explanation's evidence
                if not explanation.member:
                    _confirm_negative_witness(tgd, explanation)

    @SETTINGS
    @given(tgd_sets())
    def test_negative_explanations_always_carry_witnesses(self, sigma):
        for tgd in sigma:
            for cls in CLASSES:
                explanation = explain_fragment(tgd, cls)
                if not explanation.member:
                    assert explanation.witness() is not None
                    assert explanation.witness_atom is not None

    @SETTINGS
    @given(tgd_sets())
    def test_explain_fragments_covers_the_lattice_in_order(self, sigma):
        for tgd in sigma:
            explanations = explain_fragments(tgd)
            assert tuple(e.cls for e in explanations) == CLASSES

    @SETTINGS
    @given(tgd_sets())
    def test_class_containments_hold(self, sigma):
        # linear => guarded => frontier-guarded, full => frontier-guarded
        # (via the explained memberships, so drift in either layer trips).
        for tgd in sigma:
            member = {
                cls: explain_fragment(tgd, cls).member for cls in CLASSES
            }
            if member[TGDClass.LINEAR]:
                assert member[TGDClass.GUARDED]
            if member[TGDClass.GUARDED]:
                assert member[TGDClass.FRONTIER_GUARDED]


class TestCertificateLatticeChain:
    @SETTINGS
    @given(tgd_sets())
    def test_wa_implies_ja_implies_swa(self, sigma):
        wa = is_weakly_acyclic(sigma)
        ja = is_jointly_acyclic(sigma)
        swa = is_super_weakly_acyclic(sigma)
        if wa:
            assert ja
        if ja:
            assert swa

    @SETTINGS
    @given(tgd_sets())
    def test_certificate_for_returns_the_strongest(self, sigma):
        report = certificate_for(sigma)
        wa = is_weakly_acyclic(sigma)
        ja = is_jointly_acyclic(sigma)
        swa = is_super_weakly_acyclic(sigma)
        if wa:
            assert report.certificate is Certificate.WEAK_ACYCLICITY
        elif ja:
            assert report.certificate is Certificate.JOINT_ACYCLICITY
        elif swa:
            assert report.certificate is Certificate.SUPER_WEAK_ACYCLICITY
        else:
            # Beyond the syntactic tiers the lattice climbs into the
            # semantic ones; a set can land on any of the three.
            assert report.certificate in (
                Certificate.MODEL_SUMMARISING_ACYCLICITY,
                Certificate.MODEL_FAITHFUL_ACYCLICITY,
                Certificate.NONE,
            )
            if report.certificate is (
                Certificate.MODEL_FAITHFUL_ACYCLICITY
            ):
                # MFA is only reached when the MSA summary failed.
                assert msa_report(sigma).acyclic is not True
        if report.certificate is Certificate.NONE:
            assert report.cycle  # a trigger-cycle witness is mandatory

    @SETTINGS
    @given(tgd_sets())
    def test_swa_implies_msa(self, sigma):
        # The semantic tier strictly extends the syntactic chain:
        # every super-weakly acyclic set is model-summarising acyclic
        # (its summarised Skolem chase terminates without an edge
        # cycle).  The random sets are small enough that the summary
        # chase always fits the safety budget, so the verdict is
        # definitive, never `None`.
        if is_super_weakly_acyclic(sigma):
            assert msa_report(sigma).acyclic is True

    @SETTINGS
    @given(tgd_sets())
    def test_full_tgd_sets_are_weakly_acyclic(self, sigma):
        full = tuple(tgd for tgd in sigma if tgd.is_full)
        assert is_weakly_acyclic(full)
        assert certificate_for(full).certificate is (
            Certificate.WEAK_ACYCLICITY
        )
