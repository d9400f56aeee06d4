"""Homomorphism search, isomorphism, compiled join plans."""

from .isomorphism import all_isomorphisms, are_isomorphic, find_isomorphism
from .plans import PLAN_CACHE, JoinPlan, compile_plan
from .search import (
    all_extensions_of,
    all_homomorphisms,
    find_extension,
    find_homomorphism,
    satisfies_atoms,
)

__all__ = [
    "all_isomorphisms", "are_isomorphic", "find_isomorphism",
    "all_extensions_of", "all_homomorphisms", "find_extension",
    "find_homomorphism", "satisfies_atoms",
    "PLAN_CACHE", "JoinPlan",
    "compile_plan",
]
