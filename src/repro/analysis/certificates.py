"""Termination certificates and budget gating for the engines.

A *certificate* is a static guarantee that every chase sequence over a
dependency set terminates.  The lattice, strongest first (each class is
strictly contained in the next, except MSA ⊆ MFA where strictness
holds but the containment is what gating relies on):

    WEAK_ACYCLICITY ⊊ JOINT_ACYCLICITY ⊊ SUPER_WEAK_ACYCLICITY
        ⊊ MODEL_SUMMARISING ⊆ MODEL_FAITHFUL ⊊ (none)

The first three tiers are syntactic (position/place flow analyses in
:mod:`repro.analysis.acyclicity`); the last two are *semantic* — they
Skolemize the rules and chase the 1-critical instance under a cycle
monitor (:mod:`repro.analysis.semantic`), which certifies strictly
more sets (e.g. joins the place analysis cannot see to be vacuous).

:func:`certificate_for` returns the strongest certificate that applies,
plus a concrete cycle witness when none does.  Reports are memoized on
the exact, ordered dependency tuple, because the engines ask the same
question over and over: every ``entails()`` call on the same premise
set would otherwise rebuild the position graph from scratch.  The key
is exact because the witness names rules by index (``rule<i>``): a
reordered or renamed set is analysed on its own, so a memo hit returns
the witness a cold analysis of that very set would.

**Gating.**  :func:`default_budget` is the single place where the
engines (``entails``, ``certain_answer``, omqa, the ontology layer)
decide whether a chase needs a round budget: a memoized certificate
drops the budget and bumps the ``chase.certificate`` telemetry
counter.  Gating can only widen the set of inputs chased to a
definitive fixpoint compared with the classical per-call
weak-acyclicity check; for weakly acyclic sets both agree exactly, so
engine results are bit-identical (asserted by ``tests/test_analysis.py``
and measured by ``benchmarks/bench_analysis.py`` against the legacy
check kept in ``tests/oracles/legacy_gating.py``).

**Soundness with constraints.**  Weak acyclicity certifies tgd+egd
sets (Fagin et al.); the joint and super-weak refinements are proven
for tgds only, so in the presence of egds they are *reported* but not
used to drop budgets.  The semantic MSA/MFA checks are likewise proven
for tgds only and are additionally *skipped* (not merely unscoped)
when egds are present — their Skolem chase does not model egd merges.
Denial constraints never create facts and are always safe.
"""

from __future__ import annotations

import enum
from typing import Sequence

from ..chase.termination import weak_acyclicity_report
from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..memo import Memo, register
from ..telemetry import TELEMETRY
from .acyclicity import (
    joint_acyclicity_report,
    super_weak_acyclicity_report,
)

__all__ = [
    "Certificate",
    "CertificateReport",
    "certificate_for",
    "default_budget",
    "guarantees_termination",
]


class Certificate(enum.Enum):
    """The termination-certificate lattice, strongest condition first."""

    WEAK_ACYCLICITY = "weak-acyclicity"
    JOINT_ACYCLICITY = "joint-acyclicity"
    SUPER_WEAK_ACYCLICITY = "super-weak-acyclicity"
    MODEL_SUMMARISING_ACYCLICITY = "model-summarising-acyclicity"
    MODEL_FAITHFUL_ACYCLICITY = "model-faithful-acyclicity"
    NONE = "none"

    def __str__(self) -> str:
        return self.value

    @property
    def strength(self) -> int:
        """Smaller is stronger; ``NONE`` is weakest."""
        return _STRENGTH[self]

    def implies(self, other: "Certificate") -> bool:
        """Class containment: a set certified at ``self`` is also in
        every weaker class (``weak ⊂ joint ⊂ super-weak ⊂ msa ⊆
        mfa``)."""
        return self.strength <= other.strength


_STRENGTH = {
    Certificate.WEAK_ACYCLICITY: 0,
    Certificate.JOINT_ACYCLICITY: 1,
    Certificate.SUPER_WEAK_ACYCLICITY: 2,
    Certificate.MODEL_SUMMARISING_ACYCLICITY: 3,
    Certificate.MODEL_FAITHFUL_ACYCLICITY: 4,
    Certificate.NONE: 5,
}


class CertificateReport:
    """The strongest certificate of a tgd set, with provenance.

    ``cycle`` is the witness against the *weakest* analysis (super-weak
    acyclicity) when no certificate applies — the strongest possible
    evidence of a termination risk.  ``tgd_only`` records whether the
    analyzed set contained only tgds (and denial constraints), which is
    what the joint/super-weak certificates require to gate budgets.
    """

    __slots__ = ("certificate", "cycle", "tgd_only")

    def __init__(
        self,
        certificate: Certificate,
        cycle: tuple[str, ...] | None,
        tgd_only: bool,
    ) -> None:
        self.certificate = certificate
        self.cycle = cycle
        self.tgd_only = tgd_only

    def __bool__(self) -> bool:
        return self.certificate is not Certificate.NONE

    @property
    def guarantees_termination(self) -> bool:
        """Does the certificate apply to the *analyzed set as given*?

        Weak acyclicity covers tgds+egds; the refinements are only
        proven for tgd-only sets.
        """
        if self.certificate is Certificate.WEAK_ACYCLICITY:
            return True
        if self.certificate is Certificate.NONE:
            return False
        return self.tgd_only

    def __repr__(self) -> str:
        return (
            f"CertificateReport({self.certificate}, cycle={self.cycle}, "
            f"tgd_only={self.tgd_only})"
        )


_cache: Memo[CertificateReport] = register("certificates", Memo(
    1024, hit_counter="analysis.certificate_cache_hits"
))


def _analyze(tgds: Sequence[TGD], tgd_only: bool) -> CertificateReport:
    weak = weak_acyclicity_report(tgds)
    if weak.weakly_acyclic:
        return CertificateReport(Certificate.WEAK_ACYCLICITY, None, tgd_only)
    joint = joint_acyclicity_report(tgds)
    if joint.acyclic:
        return CertificateReport(Certificate.JOINT_ACYCLICITY, None, tgd_only)
    super_weak = super_weak_acyclicity_report(tgds)
    if super_weak.acyclic:
        return CertificateReport(
            Certificate.SUPER_WEAK_ACYCLICITY, None, tgd_only
        )
    # The semantic tiers chase the critical instance of the *tgds*; an
    # egd could merge terms the Skolem chase keeps apart, so they are
    # only attempted for tgd-only sets (where they can gate budgets).
    if tgd_only:
        from .semantic import mfa_report, msa_report

        msa = msa_report(tgds)
        if msa.acyclic is True:
            return CertificateReport(
                Certificate.MODEL_SUMMARISING_ACYCLICITY, None, tgd_only
            )
        mfa = mfa_report(tgds)
        if mfa.acyclic is True:
            return CertificateReport(
                Certificate.MODEL_FAITHFUL_ACYCLICITY, None, tgd_only
            )
    # No certificate: keep the super-weak trigger cycle as the witness
    # (the semantic checks' failure is a concrete cyclic term, but the
    # place-level cycle is the witness every existing consumer pins).
    return CertificateReport(Certificate.NONE, super_weak.cycle, tgd_only)


def certificate_for(dependencies: Sequence[object]) -> CertificateReport:
    """The strongest termination certificate of the set's tgds,
    memoized on the ordered dependency tuple."""
    deps = tuple(dependencies)
    report = _cache.get(deps)
    if report is not None:
        return report
    tgds = [dep for dep in deps if isinstance(dep, TGD)]
    tgd_only = not any(isinstance(dep, EGD) for dep in deps)
    report = _analyze(tgds, tgd_only)
    if TELEMETRY.enabled:
        TELEMETRY.count("analysis.certificates_computed")
    _cache.put(deps, report)
    return report


def guarantees_termination(dependencies: Sequence[object]) -> bool:
    """Does a (memoized) certificate guarantee every chase over the set
    terminates?  Respects the soundness scope of each certificate."""
    return certificate_for(dependencies).guarantees_termination


def default_budget(
    dependencies: Sequence[object], fallback: int
) -> int | None:
    """The chase round budget the engines should apply when the caller
    did not pass one: ``None`` (chase to fixpoint) when a termination
    certificate applies, ``fallback`` otherwise.

    This is the certificate-gating seam: it consults the memoized
    certificate lattice, counting ``chase.certificate`` each time a
    budget is dropped.
    """
    if guarantees_termination(dependencies):
        if TELEMETRY.enabled:
            TELEMETRY.count("chase.certificate")
        return None
    return fallback
