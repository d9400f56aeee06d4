"""Entailment, equivalence, certain answers."""

from .bcq import BCQ, certain_answer, freeze_atoms
from .implication import (
    entailed_by_empty_theory,
    entails,
    entails_all,
    equivalent,
)
from .trivalent import TriBool, UndecidedError, tri_all

__all__ = [
    "BCQ", "certain_answer", "freeze_atoms",
    "entailed_by_empty_theory", "entails", "entails_all", "equivalent",
    "TriBool", "UndecidedError", "tri_all",
]
