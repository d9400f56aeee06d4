"""One-call characterization: which tgd classes can axiomatize an
ontology? — the paper's Theorems 4.1, 5.6, 6.4, 7.4, 8.4 as an API.

Given an ontology and a width ``(n, m)``, :func:`characterize` runs the
property batteries of every characterization theorem over a bounded
instance space and reports, per class, whether the *necessary and
sufficient* conditions hold on that space:

* ``TGD``              — critical + ⊗-closed + (n, m)-local        (Thm 4.1)
* ``FULL``             — 1-critical + domain independent + n-modular
                         + ∩-closed + non-obl.-dup.-closed          (Thm 5.6)
* ``LINEAR``           — critical + ⊗-closed + linear (n, m)-local (Thm 6.4)
* ``GUARDED``          — critical + ⊗-closed + guarded (n, m)-local (Thm 7.4)
* ``FRONTIER_GUARDED`` — critical + ⊗-closed + fr-guarded (n, m)-local (Thm 8.4)

Every verdict is *exhaustive over the stated bounds* — exact for the
bounded fragment, a sound screen for the unbounded statement (a single
failure already refutes axiomatizability in that class).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..dependencies.classes import TGDClass
from ..instances.enumeration import all_instances_up_to
from ..instances.instance import Instance
from ..ontology.base import Ontology
from .closures import (
    domain_independence_report,
    duplicating_extension_closure_report,
    intersection_closure_report,
)
from .criticality import criticality_report
from .locality import LocalityMode, locality_report
from .modularity import modularity_report
from .products import product_closure_report
from .report import PropertyReport

__all__ = ["ClassVerdict", "CharacterizationResult", "characterize"]


@dataclass(frozen=True)
class ClassVerdict:
    """Verdict for one class: the theorem's conditions and their reports."""

    tgd_class: TGDClass
    theorem: str
    axiomatizable: bool
    reports: tuple[PropertyReport, ...]

    def failing_conditions(self) -> tuple[PropertyReport, ...]:
        return tuple(r for r in self.reports if not r.holds)

    def __str__(self) -> str:
        verdict = "YES" if self.axiomatizable else "no"
        return f"{self.tgd_class} ({self.theorem}): {verdict}"


@dataclass(frozen=True)
class CharacterizationResult:
    """All five class verdicts, plus the parameters they were run at."""

    n: int
    m: int
    max_domain_size: int
    verdicts: Mapping[TGDClass, ClassVerdict]

    def axiomatizable_classes(self) -> tuple[TGDClass, ...]:
        return tuple(
            cls
            for cls, verdict in self.verdicts.items()
            if verdict.axiomatizable
        )

    def __getitem__(self, cls: TGDClass) -> ClassVerdict:
        return self.verdicts[cls]

    def __str__(self) -> str:
        lines = [
            f"characterization at (n={self.n}, m={self.m}), "
            f"instances ≤ {self.max_domain_size} elements:"
        ]
        for verdict in self.verdicts.values():
            lines.append(f"  {verdict}")
            for failure in verdict.failing_conditions():
                lines.append(f"      ✗ {failure.property_name}")
        return "\n".join(lines)


def _shared_battery(
    ontology: Ontology, max_domain_size: int
) -> tuple[PropertyReport, PropertyReport]:
    crit = criticality_report(ontology, max_k=max(2, max_domain_size))
    prod = product_closure_report(
        ontology,
        max_domain_size=min(2, max_domain_size),
        max_pairs=1500,
    )
    return crit, prod


def characterize(
    ontology: Ontology,
    n: int,
    m: int,
    *,
    max_domain_size: int = 2,
    space: Iterable[Instance] | None = None,
) -> CharacterizationResult:
    """Run every characterization theorem's battery (see module doc).

    The locality batteries — the dominant cost, one embeddability check
    per instance of the space — run on the :mod:`repro.search` kernel,
    which reports the earliest counterexample of the space.
    """
    space = list(
        space
        if space is not None
        else all_instances_up_to(ontology.schema, max_domain_size)
    )
    crit, prod = _shared_battery(ontology, max_domain_size)

    def locality(mode: LocalityMode) -> PropertyReport:
        return locality_report(ontology, n, m, space, mode=mode)

    verdicts: dict[TGDClass, ClassVerdict] = {}

    general = (crit, prod, locality(LocalityMode.GENERAL))
    verdicts[TGDClass.TGD] = ClassVerdict(
        TGDClass.TGD, "Theorem 4.1",
        all(r.holds for r in general), general,
    )

    closure_bound = min(2, max_domain_size)
    full_reports = (
        criticality_report(ontology, max_k=1),
        domain_independence_report(ontology, space),
        modularity_report(ontology, n, space),
        intersection_closure_report(
            ontology, max_domain_size=closure_bound, max_pairs=1500
        ),
        duplicating_extension_closure_report(
            ontology, max_domain_size=closure_bound
        ),
    )
    verdicts[TGDClass.FULL] = ClassVerdict(
        TGDClass.FULL, "Theorem 5.6",
        all(r.holds for r in full_reports), full_reports,
    )

    for cls, mode, theorem in (
        (TGDClass.LINEAR, LocalityMode.LINEAR, "Theorem 6.4"),
        (TGDClass.GUARDED, LocalityMode.GUARDED, "Theorem 7.4"),
        (
            TGDClass.FRONTIER_GUARDED,
            LocalityMode.FRONTIER_GUARDED,
            "Theorem 8.4",
        ),
    ):
        reports = (crit, prod, locality(mode))
        verdicts[cls] = ClassVerdict(
            cls, theorem, all(r.holds for r in reports), reports
        )

    return CharacterizationResult(
        n=n, m=m, max_domain_size=max_domain_size, verdicts=verdicts
    )
