"""Closure properties of ontologies.

Checked exhaustively over members with a bounded domain:

* ∩-closure (Definition 5.5) — FTGD-ontologies are closed;
* closure under unions — LTGD-ontologies are closed (used for the
  Rewrite(GTGD, LTGD) lower bound, Appendix F);
* closure under *disjoint* unions — GTGD-ontologies are closed (used for
  the Rewrite(FGTGD, GTGD) lower bound);
* closure under direct products (Definition 3.3) — every TGD-ontology
  is closed (Lemma 3.4, implicit in Chang–Keisler: project the triggers
  of ``I ⊗ J`` to ``I`` and ``J``, satisfy the head on each side, and
  pair the witnesses);
* closure under subinstances (Claim B.1);
* closure under oblivious / non-oblivious duplicating extensions
  (Section 5 — the oblivious form is Makowsky–Vardi's and is *wrong* for
  full tgds, Example 5.2; the non-oblivious form is the paper's fix);
* domain independence (Definition 3.7).

Each battery is one first-counterexample run of the
:mod:`repro.search` kernel over its candidates, in their own order.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable

from ..entailment.trivalent import TriBool
from ..instances.critical import (
    all_non_oblivious_duplicating_extensions,
    oblivious_duplicating_extension,
)
from ..instances.instance import Instance
from ..instances.neighbourhood import induced_subinstances
from ..instances.operations import (
    direct_product,
    disjoint_union,
    intersection,
    union,
)
from ..lang.terms import FreshConsts, element_sort_key
from ..ontology.base import Ontology
from ..search import SearchBudget, run_search
from .report import PropertyReport, search_report

__all__ = [
    "binary_closure_report",
    "intersection_closure_report",
    "union_closure_report",
    "disjoint_union_closure_report",
    "subinstance_closure_report",
    "duplicating_extension_closure_report",
    "domain_independence_report",
    "product_closure_report",
]


def _closure_report(
    ontology: Ontology,
    name: str,
    candidates: Iterable[tuple],
    max_domain_size: int,
    budget: SearchBudget | None = None,
) -> PropertyReport:
    """``name`` holds when the last instance of every candidate (built
    from members with at most ``max_domain_size`` elements) is a
    member; the first candidate whose last instance is not is the
    counterexample."""
    outcome = run_search(
        candidates,
        lambda candidate: TriBool.of(not ontology.contains(candidate[-1])),
        budget=budget,
        stop_after_accepts=1,
    )
    return search_report(
        name, outcome, scope=f"members with ≤ {max_domain_size} elements"
    )


def binary_closure_report(
    ontology: Ontology,
    operation: Callable[[Instance, Instance], Instance],
    operation_name: str,
    max_domain_size: int = 2,
    *,
    max_pairs: int | None = None,
) -> PropertyReport:
    """Generic ``I, J ∈ O ⟹ op(I, J) ∈ O`` check over bounded members
    (optionally capped at the first ``max_pairs`` pairs)."""
    members = list(ontology.members(max_domain_size))
    triples = (
        (left, right, operation(left, right))
        for left, right in itertools.product(members, repeat=2)
    )
    return _closure_report(
        ontology,
        f"closure under {operation_name}",
        triples,
        max_domain_size,
        SearchBudget(max_candidates=max_pairs),
    )


def product_closure_report(
    ontology: Ontology,
    max_domain_size: int = 2,
    *,
    max_pairs: int | None = None,
) -> PropertyReport:
    return binary_closure_report(
        ontology,
        direct_product,
        "direct products",
        max_domain_size,
        max_pairs=max_pairs,
    )


def intersection_closure_report(
    ontology: Ontology, max_domain_size: int = 2, **kwargs
) -> PropertyReport:
    return binary_closure_report(
        ontology, intersection, "intersections", max_domain_size, **kwargs
    )


def union_closure_report(
    ontology: Ontology, max_domain_size: int = 2, **kwargs
) -> PropertyReport:
    return binary_closure_report(
        ontology, union, "unions", max_domain_size, **kwargs
    )


def disjoint_union_closure_report(
    ontology: Ontology, max_domain_size: int = 2, **kwargs
) -> PropertyReport:
    return binary_closure_report(
        ontology, disjoint_union, "disjoint unions", max_domain_size, **kwargs
    )


def subinstance_closure_report(
    ontology: Ontology, max_domain_size: int = 2
) -> PropertyReport:
    """``I ∈ O`` and ``J ≤ I`` imply ``J ∈ O`` (Claim B.1 situation)."""
    pairs = (
        (member, sub)
        for member in ontology.members(max_domain_size)
        for sub in induced_subinstances(member)
    )
    return _closure_report(
        ontology, "closure under subinstances", pairs, max_domain_size
    )


def _oblivious_duplicating_extensions(member: Instance):
    fresh = FreshConsts("@d", member.domain)
    for source in sorted(member.domain, key=element_sort_key):
        yield source, oblivious_duplicating_extension(member, source, fresh())


def duplicating_extension_closure_report(
    ontology: Ontology,
    max_domain_size: int = 2,
    *,
    oblivious: bool = False,
) -> PropertyReport:
    """Closure under (non-)oblivious duplicating extensions.

    With ``oblivious=True`` this checks the original Makowsky–Vardi
    notion, which Example 5.2 refutes for full tgds.
    """
    flavour = "oblivious" if oblivious else "non-oblivious"
    extensions = (
        _oblivious_duplicating_extensions
        if oblivious
        else all_non_oblivious_duplicating_extensions
    )
    triples = (
        (member, source, extension)
        for member in ontology.members(max_domain_size)
        for source, extension in extensions(member)
    )
    return _closure_report(
        ontology,
        f"closure under {flavour} duplicating extensions",
        triples,
        max_domain_size,
    )


def domain_independence_report(
    ontology: Ontology,
    instance_space: Iterable[Instance],
    *,
    extra_elements: int = 1,
) -> PropertyReport:
    """Domain independence (Definition 3.7): membership depends on the
    facts only.  For each instance in the space, compare membership with
    copies whose domain gains inactive elements (every pair with equal
    facts differs from a common fact-core only by inactive elements)."""
    base_verdict = False

    def padded_pairs():
        nonlocal base_verdict
        for instance in instance_space:
            base = instance.shrink_domain()
            base_verdict = ontology.contains(base)
            padding = FreshConsts("@pad", base.domain).take(extra_elements)
            for count in range(1, extra_elements + 1):
                yield base, base.with_domain(
                    set(base.domain) | set(padding[:count])
                )

    def changes_membership(pair) -> TriBool:
        # The kernel decides each pair before it draws the next, so
        # ``base_verdict`` is still the verdict of this pair's base.
        return TriBool.of(ontology.contains(pair[1]) != base_verdict)

    outcome = run_search(
        padded_pairs(), changes_membership, stop_after_accepts=1
    )
    return search_report(
        "domain independence",
        outcome,
        scope="given space",
        details="membership changed with an inactive element",
        scoped_failure=False,
    )
