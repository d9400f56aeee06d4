"""Entailment, equivalence, certain answers."""

from .bcq import BCQ, certain_answer
from .implication import (
    Premises,
    entailed_by_empty_theory,
    entails,
    entails_all,
    equivalent,
    prepare_premises,
)
from .trivalent import TriBool, UndecidedError, tri_all

__all__ = [
    "BCQ", "certain_answer",
    "entailed_by_empty_theory", "entails", "entails_all", "equivalent",
    "Premises", "prepare_premises",
    "TriBool", "UndecidedError", "tri_all",
]
