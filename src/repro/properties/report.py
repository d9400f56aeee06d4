"""Uniform result type for model-theoretic property checks.

Every checker returns a :class:`PropertyReport` carrying the verdict, a
counterexample when the property fails, and how much of the (generally
infinite) quantification space was actually covered — these checks are
exhaustive over *bounded* instance spaces, which is stated explicitly
instead of being silently assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..search import SearchOutcome

__all__ = ["PropertyReport", "search_report"]


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of a property check over a bounded search space."""

    property_name: str
    holds: bool
    counterexample: object = None
    checked: int = 0
    scope: str = ""
    details: str = ""

    def __bool__(self) -> bool:
        return self.holds

    def __str__(self) -> str:
        verdict = "holds" if self.holds else "FAILS"
        parts = [f"{self.property_name}: {verdict}"]
        if self.scope:
            parts.append(f"[{self.scope}]")
        if self.checked:
            parts.append(f"({self.checked} checks)")
        if not self.holds and self.counterexample is not None:
            parts.append(f"counterexample: {self.counterexample}")
        if self.details:
            parts.append(f"— {self.details}")
        return " ".join(parts)


def search_report(
    name: str,
    outcome: SearchOutcome,
    *,
    scope: str = "",
    details: str = "",
    scoped_failure: bool = True,
) -> PropertyReport:
    """The report of a battery run on :func:`repro.search.run_search` in
    first-counterexample mode: the first accepted candidate is the
    counterexample, and ``checked`` is the number of candidates decided.

    ``details`` explains a failure.  ``scope`` states what a pass
    covers; a failure repeats it unless ``scoped_failure`` is false (a
    battery over a caller-given space reports the counterexample alone).
    """
    if not outcome.accepted:
        return PropertyReport(name, True, None, outcome.considered, scope)
    return PropertyReport(
        name,
        False,
        outcome.accepted[0],
        outcome.considered,
        scope if scoped_failure else "",
        details,
    )
