"""The constructive direction (2) ⇒ (1) of Theorem 5.6 (full tgds).

For an ontology that is 1-critical, domain independent, n-modular,
∩-closed, and closed under non-oblivious duplicating extensions, the
proof in Appendix B builds:

* ``Σ^∨`` — all disjunctive dependencies (dds) with at most n variables
  valid in the ontology (Lemma B.2: the ontology equals the models of
  ``Σ^∨``); and
* ``Σ`` — the full tgds among them (Lemma B.5).

We also expose the diagram-based dd of an instance (``¬∃x̄ Φ_{I_n}(x̄)``
as a dd, Claim B.4), the mechanism the proof uses to refute non-members.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..dependencies.edd import EDD, EqualityDisjunct, ExistentialDisjunct
from ..dependencies.enumeration import atoms_over, enumerate_dds
from ..dependencies.tgd import TGD
from ..instances.enumeration import all_instances_up_to
from ..instances.instance import Instance
from ..ontology.base import Ontology
from ..properties.diagrams import diagram_body
from .tgd_synthesis import _valid_candidates, verify_axiomatization

__all__ = ["FullSynthesisResult", "diagram_dd", "synthesize_full_tgds", "synthesize_full_via_diagrams"]


@dataclass(frozen=True)
class FullSynthesisResult:
    """``Σ^∨`` (dds) and the full-tgd subset, with validation outcome."""

    sigma_vee: tuple[EDD, ...]
    full_tgds: tuple[TGD, ...]
    candidates_considered: int
    verified: bool
    mismatches: tuple[Instance, ...]


def diagram_dd(instance: Instance) -> EDD:
    """The dd equivalent to ``¬∃x̄ Φ_I(x̄)`` for a finite instance with
    ``dom(I) = adom(I)`` (Claim B.4).

    Body: the facts of ``I`` as atoms; head: all inequalities as equality
    disjuncts plus every atom over ``dom(I)`` *missing* from ``I``.
    """
    if instance.domain != instance.active_domain:
        raise ValueError("diagram_dd requires dom(I) = adom(I)")
    if instance.is_empty():
        raise ValueError("diagram_dd requires a non-empty instance")
    as_var, body = diagram_body(instance)
    variables = tuple(as_var.values())
    disjuncts: list = [
        EqualityDisjunct(a, b) for a, b in itertools.combinations(variables, 2)
    ]
    disjuncts.extend(
        ExistentialDisjunct((atom,))
        for atom in atoms_over(instance.schema, variables)
        if atom not in body
    )
    if not disjuncts:
        raise ValueError(
            "the instance is 1-critical; its diagram has no negative "
            "conjunct (cannot happen for non-members of a 1-critical "
            "ontology, cf. Claim B.4)"
        )
    return EDD(body, tuple(disjuncts))


def synthesize_full_tgds(
    ontology: Ontology,
    n: int,
    *,
    member_domain_bound: int = 2,
    verify_domain_bound: int = 2,
    max_body_atoms: int | None = 2,
    max_disjuncts: int = 2,
) -> FullSynthesisResult:
    """Run the Theorem 5.6 pipeline over the dd fragment with the given
    caps and validate over a bounded instance space.

    The dd scan and the validation sweep both run on the
    :mod:`repro.search` kernel."""
    outcome = _valid_candidates(
        enumerate_dds(
            ontology.schema,
            n,
            max_body_atoms=max_body_atoms,
            max_disjuncts=max_disjuncts,
        ),
        ontology,
        member_domain_bound,
    )
    sigma_vee = outcome.accepted
    full_tgds = tuple(
        dd.as_tgd() for dd in sigma_vee if dd.is_tgd
    )
    verified, mismatches = verify_axiomatization(
        ontology, full_tgds, verify_domain_bound
    )
    return FullSynthesisResult(
        sigma_vee=sigma_vee,
        full_tgds=full_tgds,
        candidates_considered=outcome.considered,
        verified=verified,
        mismatches=mismatches,
    )


def synthesize_full_via_diagrams(
    ontology: Ontology,
    n: int,
    *,
    verify_domain_bound: int = 2,
) -> tuple[tuple[EDD, ...], bool]:
    """The Lemma B.2 construction, instance by instance: collect the
    diagram dd of every ≤ n-element non-member (with dom = adom); the
    models of the collected dds coincide with the ontology over the
    bounded space when the Theorem 5.6 conditions hold.

    Returns ``(dds, verified)``.
    """
    space = all_instances_up_to(ontology.schema, n)
    dds = tuple(
        diagram_dd(shrunk)
        for shrunk in (instance.shrink_domain() for instance in space)
        if not shrunk.is_empty() and not ontology.contains(shrunk)
    )
    verified, __ = verify_axiomatization(ontology, dds, verify_domain_bound)
    return dds, verified
