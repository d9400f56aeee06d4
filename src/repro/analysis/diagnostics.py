"""The diagnostic model shared by every analysis pass.

A :class:`Diagnostic` is one structured finding about a rule set: which
rule it concerns (``rule`` is the zero-based index into the analyzed
sequence, or ``None`` for set-level findings), a stable ``code``, a
:class:`Severity`, a human-readable ``message``, and a concrete
``witness`` — the variable, atom, predicate, or cycle that *proves* the
finding.  Witnesses are rendered strings so diagnostics stay picklable
(the lint driver fans per-rule passes out over processes) and render
identically everywhere; the structured objects they were derived from
are exposed by the individual passes (e.g.
:class:`repro.analysis.fragments.FragmentExplanation`).

Ordering is part of the contract: ``repro lint`` promises identical
diagnostics — same codes, same witnesses, same order — across repeated
runs, so :func:`sort_diagnostics`
defines the one canonical order (per-rule findings first, by rule
index, then by code and message; set-level findings last).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = ["Severity", "Diagnostic", "sort_diagnostics", "worst_severity"]


class Severity(enum.Enum):
    """How serious a finding is.

    ``ERROR`` — the set cannot be used as intended (e.g. a rewriting
    input outside the algorithm's fragment).  ``WARNING`` — the set
    works but something is likely wrong (dead rule, missing termination
    certificate).  ``INFO`` — explanatory findings (fragment
    explanations, certificates found).
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value

    @property
    def sarif_level(self) -> str:
        """The SARIF 2.1.0 ``level`` value for this severity."""
        return {"error": "error", "warning": "warning", "info": "note"}[
            self.value
        ]


_SEVERITY_RANK = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}


@dataclass(frozen=True)
class Diagnostic:
    """One structured finding of the static analysis.

    ``rule`` is the zero-based index of the concerned dependency in the
    analyzed sequence (``None`` for set-level findings such as
    termination certificates).  ``witness`` carries the concrete
    evidence as a rendered string (e.g. the unguarded variable and the
    widest body atom, or a cycle of positions); every *negative*
    fragment-membership diagnostic is guaranteed to carry one.
    """

    code: str
    severity: Severity
    message: str
    rule: int | None = None
    witness: str | None = None
    tags: tuple[str, ...] = field(default=())

    def render(self, rule_text: str | None = None) -> str:
        """One text line: ``CODE severity [rule k] message (witness: w)``."""
        where = f" [rule {self.rule}]" if self.rule is not None else ""
        head = f"{self.code} {self.severity}{where}: {self.message}"
        if self.witness is not None:
            head += f" (witness: {self.witness})"
        if rule_text is not None:
            head += f"\n    {rule_text}"
        return head

    def sort_key(self) -> tuple[int, int, str, int, str, str]:
        return (
            0 if self.rule is not None else 1,
            self.rule if self.rule is not None else 0,
            self.code,
            _SEVERITY_RANK[self.severity],
            self.message,
            self.witness or "",
        )

    def __str__(self) -> str:
        return self.render()


def sort_diagnostics(
    diagnostics: Iterable[Diagnostic],
) -> tuple[Diagnostic, ...]:
    """The canonical diagnostic order (stable across runs)."""
    return tuple(sorted(diagnostics, key=Diagnostic.sort_key))


def worst_severity(diagnostics: Sequence[Diagnostic]) -> Severity | None:
    """The most severe level present, or ``None`` for a clean report."""
    worst: Severity | None = None
    for diag in diagnostics:
        if worst is None or _SEVERITY_RANK[diag.severity] < _SEVERITY_RANK[worst]:
            worst = diag.severity
    return worst
