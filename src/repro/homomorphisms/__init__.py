"""Homomorphism search, isomorphism, cores."""

from .cores import core, find_proper_retraction, homomorphically_equivalent
from .isomorphism import all_isomorphisms, are_isomorphic, find_isomorphism
from .plans import (
    DEFAULT_ORDER,
    ORDER_MODES,
    ORDERINGS,
    PLAN_CACHE,
    AdaptiveOrdering,
    JoinPlan,
    Ordering,
    StaticOrdering,
    compile_plan,
    conjunction_signature,
)
from .search import (
    all_extensions_of,
    all_homomorphisms,
    find_extension,
    find_homomorphism,
    satisfies_atoms,
)

__all__ = [
    "core", "find_proper_retraction", "homomorphically_equivalent",
    "all_isomorphisms", "are_isomorphic", "find_isomorphism",
    "all_extensions_of", "all_homomorphisms", "find_extension",
    "find_homomorphism", "satisfies_atoms",
    "DEFAULT_ORDER", "ORDER_MODES", "ORDERINGS",
    "PLAN_CACHE", "AdaptiveOrdering", "JoinPlan",
    "Ordering", "StaticOrdering",
    "compile_plan", "conjunction_signature",
]
