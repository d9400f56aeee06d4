"""n-modularity (Definition 5.4).

An ontology is *n-modular* if every non-member contains a small witness
of non-membership: some ``J ≤ I`` with ``|dom(J)| ≤ n`` and ``J ∉ O``.
(FTGD-ontologies are n-modular for n = the max body variable count.)
"""

from __future__ import annotations

import itertools
from typing import Iterable

from ..entailment.trivalent import TriBool
from ..instances.instance import Instance
from ..lang.terms import element_sort_key
from ..ontology.base import Ontology
from ..search import run_search
from .report import PropertyReport, search_report

__all__ = ["small_refutation", "is_n_modular_for", "modularity_report"]


def small_refutation(
    ontology: Ontology, instance: Instance, n: int
) -> Instance | None:
    """A ``J ≤ instance`` with ``|dom(J)| ≤ n`` and ``J ∉ O``, if any."""
    pool = sorted(instance.domain, key=element_sort_key)
    for size in range(min(n, len(pool)) + 1):
        for subset in itertools.combinations(pool, size):
            candidate = instance.restrict(frozenset(subset))
            if not ontology.contains(candidate):
                return candidate
    return None


def is_n_modular_for(
    ontology: Ontology, instance: Instance, n: int
) -> bool:
    """Does the modularity condition hold at this (non-member) instance?"""
    if ontology.contains(instance):
        return True
    return small_refutation(ontology, instance, n) is not None


def modularity_report(
    ontology: Ontology,
    n: int,
    instance_space: Iterable[Instance],
) -> PropertyReport:
    """Check n-modularity over an explicit instance space."""
    outcome = run_search(
        instance_space,
        lambda instance: TriBool.of(
            not is_n_modular_for(ontology, instance, n)
        ),
        stop_after_accepts=1,
    )
    return search_report(
        f"{n}-modularity",
        outcome,
        scope="given space",
        details="non-member without a small refuting subinstance",
        scoped_failure=False,
    )
