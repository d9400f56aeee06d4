"""The constructive direction (2) ⇒ (1) of Theorem 4.1.

Given an ontology that is critical, closed under direct products, and
(n, m)-local, the paper builds an equivalent finite set of tgds in three
steps:

1. ``Σ^∨`` — all edds from ``E_{n,m}`` valid in the ontology (Lemma 4.4:
   the ontology is exactly the models of ``Σ^∨``);
2. ``Σ^{∃,=}`` — the tgds and egds among them (Lemma 4.7, uses
   ⊗-closure);
3. ``Σ^∃`` — the tgds among those (Lemma 4.9, uses criticality).

We implement the pipeline over an effective ontology oracle and validate
the resulting set over a bounded instance space.  Two candidate sources
are provided:

* ``synthesize_tgds`` — enumerate ``TGD_{n,m}`` directly and keep the
  candidates valid in the ontology (the end product the theorem promises,
  skipping the disjunctive detour);
* ``synthesize_via_edds`` — follow Steps 1→3 literally over an
  ``E_{n,m}`` fragment, exposing ``Σ^∨`` and ``Σ^{∃,=}`` as well.

Both candidate scans (and the final validation sweep) run on the
:mod:`repro.search` kernel: the enumerators' generators are the
candidates, validity-in-the-ontology is a
:class:`~repro.search.ValidityDecider` over the materialized bounded
member space, and the kept set is in enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..dependencies.edd import EDD
from ..dependencies.enumeration import enumerate_edds, enumerate_tgds
from ..dependencies.tgd import TGD
from ..instances.enumeration import all_instances_up_to
from ..instances.instance import Instance
from ..ontology.base import Ontology
from ..ontology.axiomatic import AxiomaticOntology
from ..search import PredicateDecider, ValidityDecider, run_search

__all__ = [
    "SynthesisResult",
    "valid_in_ontology",
    "synthesize_tgds",
    "EddSynthesisResult",
    "synthesize_via_edds",
    "verify_axiomatization",
]


@dataclass(frozen=True)
class SynthesisResult:
    """A synthesized axiomatization and its validation outcome."""

    tgds: tuple[TGD, ...]
    candidates_considered: int
    verified: bool
    mismatches: tuple[Instance, ...]

    @property
    def ontology(self) -> AxiomaticOntology:
        return AxiomaticOntology(self.tgds)


def valid_in_ontology(
    dependency,
    ontology: Ontology,
    member_domain_bound: int,
) -> bool:
    """Is the dependency satisfied by every member (with ≤ bound domain
    elements — exact for properties of bounded-width dependencies on
    finitely presented ontologies, an exhaustive approximation otherwise)?
    """
    return all(
        dependency.satisfied_by(member)
        for member in ontology.members(member_domain_bound)
    )


def verify_axiomatization(
    ontology: Ontology,
    dependencies: Sequence,
    verify_domain_bound: int,
) -> tuple[bool, tuple[Instance, ...]]:
    """Compare the models of ``dependencies`` with the ontology over the
    bounded instance space; returns ``(verified, mismatches)``."""
    dependencies = tuple(dependencies)

    def mismatch(candidate: Instance) -> bool:
        in_ontology = ontology.contains(candidate)
        satisfies = all(dep.satisfied_by(candidate) for dep in dependencies)
        return in_ontology != satisfies

    outcome = run_search(
        all_instances_up_to(ontology.schema, verify_domain_bound),
        PredicateDecider(mismatch),
    )
    return (not outcome.accepted, outcome.accepted)


def synthesize_tgds(
    ontology: Ontology,
    n: int,
    m: int,
    *,
    member_domain_bound: int = 2,
    verify_domain_bound: int = 2,
    max_body_atoms: int | None = 2,
    max_head_atoms: int | None = None,
) -> SynthesisResult:
    """Produce the ``Σ^∃ ∈ TGD_{n,m}`` of Theorem 4.1 directly.

    Collect every canonical candidate of ``TGD_{n,m}`` valid in the
    ontology, then check that its models coincide with the ontology over
    the bounded instance space.  When the ontology satisfies the three
    properties of Theorem 4.1 for these (n, m), verification succeeds on
    every bound.
    """
    members = tuple(ontology.members(member_domain_bound))
    outcome = run_search(
        enumerate_tgds(
            ontology.schema,
            n,
            m,
            max_body_atoms=max_body_atoms,
            max_head_atoms=max_head_atoms,
        ),
        ValidityDecider(members),
    )
    kept = outcome.accepted
    verified, mismatches = verify_axiomatization(
        ontology, kept, verify_domain_bound
    )
    return SynthesisResult(
        tgds=kept,
        candidates_considered=outcome.considered,
        verified=verified,
        mismatches=mismatches,
    )


@dataclass(frozen=True)
class EddSynthesisResult:
    """The three-step pipeline of Theorem 4.1, materialized."""

    sigma_vee: tuple[EDD, ...]
    sigma_exists_eq: tuple[EDD, ...]
    sigma_exists: tuple[TGD, ...]
    candidates_considered: int
    verified: bool
    mismatches: tuple[Instance, ...]


def synthesize_via_edds(
    ontology: Ontology,
    n: int,
    m: int,
    *,
    member_domain_bound: int = 2,
    verify_domain_bound: int = 2,
    max_body_atoms: int | None = 1,
    max_disjuncts: int = 2,
    max_atoms_per_disjunct: int = 1,
) -> EddSynthesisResult:
    """Steps 1–3 of the proof of Theorem 4.1 over an ``E_{n,m}`` fragment.

    ``Σ^∨`` = valid edds; ``Σ^{∃,=}`` = its tgds + egds; ``Σ^∃`` = its
    tgds.  Validation compares the models of ``Σ^∃`` with the ontology.
    """
    members = tuple(ontology.members(member_domain_bound))
    outcome = run_search(
        enumerate_edds(
            ontology.schema,
            n,
            m,
            max_body_atoms=max_body_atoms,
            max_disjuncts=max_disjuncts,
            max_atoms_per_disjunct=max_atoms_per_disjunct,
        ),
        ValidityDecider(members),
    )
    sigma_vee = outcome.accepted
    sigma_exists_eq = tuple(
        edd for edd in sigma_vee if edd.is_tgd or edd.is_egd
    )
    sigma_exists = tuple(
        edd.as_tgd() for edd in sigma_exists_eq if edd.is_tgd
    )
    verified, mismatches = verify_axiomatization(
        ontology, sigma_exists, verify_domain_bound
    )
    return EddSynthesisResult(
        sigma_vee=sigma_vee,
        sigma_exists_eq=sigma_exists_eq,
        sigma_exists=sigma_exists,
        candidates_considered=outcome.considered,
        verified=verified,
        mismatches=mismatches,
    )
