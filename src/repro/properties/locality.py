"""(n, m)-locality and its linear / guarded / frontier-guarded refinements
(Definitions 3.5, 6.1, 7.1, 8.1) — the paper's main conceptual novelty.

An ontology ``O`` is *(n, m)-locally embeddable* in an instance ``I`` if
for every ``K ≤ I`` with ``|adom(K)| ≤ n`` there is a member ``J_K ∈ O``
with ``K ⊆ J_K`` such that every ``J'`` in the m-neighbourhood of ``K``
in ``J_K`` maps into ``I`` by a function that is the identity on
``adom(K)``.  ``O`` is *(n, m)-local* if local embeddability implies
membership.  The refinements vary the anchors:

* **linear** (Def 6.1)  — anchors are ``K ⊆ I`` with at most one fact;
* **guarded** (Def 7.1) — anchors are guarded ``K ≤ I``;
* **frontier-guarded** (Def 8.1) — anchors are pairs ``(F, K)`` with
  ``F ⊆ adom(I)`` and ``K ≤ I`` F-guarded; neighbourhoods and the
  identity requirement use ``F`` instead of ``adom(K)``.

Witness search caveat: "there is ``J_K ∈ O``" quantifies over an infinite
class.  :meth:`repro.ontology.base.Ontology.supersets_of` searches members
extending ``K`` with at most ``witness_extra`` additional elements — exact
for :class:`FiniteOntology`, and a sound under-approximation for
axiomatic ontologies (a missing witness can only make embeddability —
and hence locality *violations* — go unreported, never fabricate one).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator

from ..instances.instance import Instance
from ..instances.neighbourhood import (
    maximal_m_neighbourhood_members,
    subinstances_with_adom_at_most,
)
from ..homomorphisms.search import find_homomorphism
from ..lang.terms import element_sort_key
from ..ontology.base import Ontology
from ..search import Verdict, run_search
from .report import PropertyReport, failing, passing

__all__ = [
    "LocalityMode",
    "neighbourhood_embeds",
    "anchors_for",
    "locally_embeddable",
    "locality_report",
]


@dataclass(frozen=True)
class LocalityMode:
    """One of the four locality notions (instances defined below)."""

    name: str

    GENERAL: ClassVar["LocalityMode"]
    LINEAR: ClassVar["LocalityMode"]
    GUARDED: ClassVar["LocalityMode"]
    FRONTIER_GUARDED: ClassVar["LocalityMode"]

    def __str__(self) -> str:
        return self.name


LocalityMode.GENERAL = LocalityMode("general")
LocalityMode.LINEAR = LocalityMode("linear")
LocalityMode.GUARDED = LocalityMode("guarded")
LocalityMode.FRONTIER_GUARDED = LocalityMode("frontier-guarded")


@dataclass(frozen=True)
class Anchor:
    """An anchor of a local-embeddability check: the instance ``K`` and
    the element set the embedding must be the identity on (``adom(K)``,
    or ``F`` in the frontier-guarded case)."""

    instance: Instance
    focus: frozenset

    def __str__(self) -> str:
        focus = ", ".join(str(e) for e in sorted(self.focus, key=element_sort_key))
        return f"K={self.instance} fixing {{{focus}}}"


def neighbourhood_embeds(
    witness: Instance,
    focus: frozenset,
    m: int,
    target: Instance,
) -> bool:
    """Does every ``J'`` in the m-neighbourhood of ``focus`` in
    ``witness`` embed into ``target`` by a map fixing ``focus``?

    Only ⊆-maximal neighbourhood members are tested: an embedding of a
    member restricts to an embedding of each of its subinstances.
    """
    fixed = {elem: elem for elem in focus}
    for member in maximal_m_neighbourhood_members(witness, focus, m):
        if find_homomorphism(member, target, fixed) is None:
            return False
    return True


def _fg_focus_sets(
    instance: Instance, max_focus_size: int
) -> Iterator[frozenset]:
    pool = sorted(instance.active_domain, key=element_sort_key)
    for size in range(min(max_focus_size, len(pool)) + 1):
        for subset in itertools.combinations(pool, size):
            yield frozenset(subset)


def anchors_for(
    instance: Instance,
    n: int,
    mode: LocalityMode,
    *,
    max_focus_size: int | None = None,
) -> Iterator[Anchor]:
    """The anchors the chosen locality notion quantifies over.

    For the frontier-guarded mode, ``F`` ranges over finite subsets of
    ``adom(I)``; ``max_focus_size`` bounds ``|F|`` (default ``n``, which
    is what Lemma 8.3 needs — the frontier of a tgd in ``TGD_{n,m}`` has
    at most ``n`` variables).
    """
    if mode is LocalityMode.GENERAL:
        for sub in subinstances_with_adom_at_most(instance, n):
            yield Anchor(sub, sub.active_domain)
    elif mode is LocalityMode.LINEAR:
        # K ⊆ I with at most one fact and |adom(K)| ≤ n.
        yield Anchor(
            Instance.from_facts(instance.schema, ()), frozenset()
        )
        for fact in sorted(instance.facts()):
            single = Instance.from_facts(instance.schema, (fact,))
            if len(single.active_domain) <= n:
                yield Anchor(single, single.active_domain)
    elif mode is LocalityMode.GUARDED:
        for sub in subinstances_with_adom_at_most(instance, n):
            if sub.is_guarded():
                yield Anchor(sub, sub.active_domain)
    elif mode is LocalityMode.FRONTIER_GUARDED:
        bound = n if max_focus_size is None else max_focus_size
        for focus in _fg_focus_sets(instance, bound):
            for sub in subinstances_with_adom_at_most(instance, n):
                if sub.is_guarded_relative_to(focus):
                    yield Anchor(sub, focus)
    else:  # pragma: no cover
        raise ValueError(f"unknown locality mode {mode}")


def locally_embeddable(
    ontology: Ontology,
    instance: Instance,
    n: int,
    m: int,
    *,
    mode: LocalityMode = LocalityMode.GENERAL,
    witness_extra: int | None = None,
    max_focus_size: int | None = None,
) -> bool:
    """Is the ontology (n, m)-locally embeddable in ``instance``
    (Definition 3.5 / Fig. 1, or the chosen refinement)?

    ``witness_extra`` bounds the extra elements of candidate witnesses
    ``J_K`` (default ``m + 1``).
    """
    budget = (m + 1) if witness_extra is None else witness_extra
    for anchor in anchors_for(
        instance, n, mode, max_focus_size=max_focus_size
    ):
        found = False
        for witness in ontology.supersets_of(anchor.instance, budget):
            if neighbourhood_embeds(witness, anchor.focus, m, instance):
                found = True
                break
        if not found:
            return False
    return True


@dataclass(frozen=True)
class _LocalityViolation:
    """Kernel decider: accept instances that witness a locality failure
    (a non-member the ontology is locally embeddable in)."""

    ontology: Ontology
    n: int
    m: int
    mode: LocalityMode
    witness_extra: int | None
    max_focus_size: int | None

    def decide(self, instance: Instance) -> Verdict:
        if self.ontology.contains(instance):
            return Verdict.REJECT
        embeddable = locally_embeddable(
            self.ontology,
            instance,
            self.n,
            self.m,
            mode=self.mode,
            witness_extra=self.witness_extra,
            max_focus_size=self.max_focus_size,
        )
        return Verdict.ACCEPT if embeddable else Verdict.REJECT


def locality_report(
    ontology: Ontology,
    n: int,
    m: int,
    instance_space: Iterable[Instance],
    *,
    mode: LocalityMode = LocalityMode.GENERAL,
    witness_extra: int | None = None,
    max_focus_size: int | None = None,
) -> PropertyReport:
    """Check (n, m)-locality over an explicit instance space: every
    instance the ontology is locally embeddable in must be a member.

    The per-instance scan runs on the :mod:`repro.search` kernel in
    first-counterexample mode and reports the *earliest* counterexample
    of the space."""
    outcome = run_search(
        instance_space,
        _LocalityViolation(
            ontology, n, m, mode, witness_extra, max_focus_size
        ),
        stop_after_accepts=1,
    )
    if outcome.accepted:
        return failing(
            f"{mode} ({n}, {m})-locality",
            outcome.accepted[0],
            checked=outcome.considered,
            details=(
                "the ontology is locally embeddable in a non-member"
            ),
        )
    return passing(
        f"{mode} ({n}, {m})-locality",
        checked=outcome.considered,
        scope="given instance space",
    )
