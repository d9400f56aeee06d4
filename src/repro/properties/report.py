"""Uniform result type for model-theoretic property checks.

Every checker returns a :class:`PropertyReport` carrying the verdict, a
counterexample when the property fails, and how much of the (generally
infinite) quantification space was actually covered — these checks are
exhaustive over *bounded* instance spaces, which is stated explicitly
instead of being silently assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PropertyReport"]


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


def passing(name: str, checked: int, scope: str = "", details: str = "") -> PropertyReport:
    return PropertyReport(name, True, None, checked, scope, details)


def failing(
    name: str,
    counterexample: object,
    checked: int,
    scope: str = "",
    details: str = "",
) -> PropertyReport:
    return PropertyReport(name, False, counterexample, checked, scope, details)
