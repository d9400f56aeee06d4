"""The lint driver: run every analysis pass over a dependency set and
return one canonical, deterministic report.

:func:`run_lint` composes the passes —

* per rule: fragment-membership explanations
  (:mod:`repro.analysis.fragments`) and unused-variable hygiene;
* per set: reachability hygiene, entailment-backed subsumption,
  egd/denial stratification, the termination-certificate lattice
  (codes ``T001``–``T003``), and — behind ``deep=True`` — the
  engine-backed deep pass (``D001``–``D003``, ``L001``);

— and sorts the union with
:func:`repro.analysis.diagnostics.sort_diagnostics`, so repeated runs
give byte-identical reports — the property ``tests/test_analysis.py``
and the CLI promise.  Every pass runs in-process: the per-rule passes
cost about 0.1 ms a rule, less than a worker pool's start-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..dependencies.tgd import TGD
from ..entailment.bcq import DEFAULT_CHASE_ROUNDS
from ..telemetry import span
from .certificates import Certificate, CertificateReport, certificate_for
from .deep import DEEP_BUDGET_FACTOR, deep_diagnostics
from .diagnostics import (
    _SEVERITY_RANK,
    Diagnostic,
    Severity,
    sort_diagnostics,
    worst_severity,
)
from .fragments import fragment_diagnostics
from .hygiene import (
    reachability_diagnostics,
    subsumption_diagnostics,
    subsumption_pass,
    unused_variable_diagnostics,
)
from .stratification import stratification_diagnostics

__all__ = ["LintReport", "run_lint", "certificate_diagnostics"]


@dataclass(frozen=True)
class LintReport:
    """Everything ``repro lint`` knows about a set: the rendered rules,
    the canonical diagnostic sequence, and the strongest termination
    certificate."""

    rules: tuple[str, ...]
    diagnostics: tuple[Diagnostic, ...]
    certificate: Certificate

    @property
    def worst(self) -> Severity | None:
        return worst_severity(self.diagnostics)

    @property
    def exit_code(self) -> int:
        """1 when any error-severity finding is present, else 0."""
        return self.exit_code_for("error")

    def exit_code_for(self, fail_on: str) -> int:
        """1 when the worst finding is at or above ``fail_on``
        (``"error"``, ``"warning"``, or ``"info"``), else 0."""
        threshold = _SEVERITY_RANK[Severity(fail_on)]
        worst = self.worst
        if worst is None:
            return 0
        return 1 if _SEVERITY_RANK[worst] <= threshold else 0


def certificate_diagnostics(
    report: CertificateReport,
) -> tuple[Diagnostic, ...]:
    """The certificate lattice as set-level diagnostics.

    ``T001`` (info) — a certificate guarantees termination, witness
    names it.  ``T002`` (warning) — no certificate, witness is the
    super-weak trigger cycle.  ``T003`` (warning) — a joint/super-weak
    certificate exists but the set has egds, so it cannot gate budgets.
    """
    if report.certificate is Certificate.NONE:
        witness = (
            " -> ".join(report.cycle) if report.cycle else None
        )
        return (
            Diagnostic(
                code="T002",
                severity=Severity.WARNING,
                message=(
                    "no termination certificate (not even super-weakly "
                    "acyclic); chases fall back to round budgets"
                ),
                witness=witness,
                tags=("termination", "no-certificate"),
            ),
        )
    if not report.guarantees_termination:
        return (
            Diagnostic(
                code="T003",
                severity=Severity.WARNING,
                message=(
                    f"{report.certificate} holds for the tgds, but the "
                    f"set contains egds, for which only weak acyclicity "
                    f"is proven — budgets stay on"
                ),
                witness=str(report.certificate),
                tags=("termination", "certificate-out-of-scope"),
            ),
        )
    return (
        Diagnostic(
            code="T001",
            severity=Severity.INFO,
            message=(
                f"every chase terminates: {report.certificate} "
                f"certificate"
            ),
            witness=str(report.certificate),
            tags=("termination", "certificate"),
        ),
    )


def run_lint(
    dependencies: Sequence[object],
    *,
    entailment: bool = True,
    deep: bool = False,
) -> LintReport:
    """Lint a dependency set.

    ``entailment=False`` skips the chase-backed subsumption pass (the
    only potentially expensive one).  ``deep=True`` adds the
    engine-backed findings of :mod:`repro.analysis.deep`
    (``D001``–``D003``, ``L001``) — exact but costlier, hence opt-in.
    """
    deps = list(dependencies)
    with span("lint", rules=len(deps)):
        diagnostics: list[Diagnostic] = []
        for index, dep in enumerate(deps):
            if isinstance(dep, TGD):
                diagnostics.extend(fragment_diagnostics(index, dep))
            diagnostics.extend(unused_variable_diagnostics(index, dep))
        diagnostics.extend(reachability_diagnostics(deps))
        if entailment:
            escalated = DEEP_BUDGET_FACTOR * DEFAULT_CHASE_ROUNDS
            diagnostics.extend(
                subsumption_pass(deps, escalated)
                if deep
                else subsumption_diagnostics(deps)
            )
        diagnostics.extend(stratification_diagnostics(deps))
        if deep:
            diagnostics.extend(deep_diagnostics(deps))
        certificate = certificate_for(deps)
        diagnostics.extend(certificate_diagnostics(certificate))
    return LintReport(
        rules=tuple(str(dep) for dep in deps),
        diagnostics=sort_diagnostics(diagnostics),
        certificate=certificate.certificate,
    )
