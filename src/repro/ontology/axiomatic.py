"""Ontologies presented by a finite set of dependencies."""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from ..dependencies.classes import set_width
from ..dependencies.edd import EDD
from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..instances.enumeration import all_extensions, all_instances_up_to
from ..instances.instance import Instance
from ..lang.schema import Schema
from ..lang.terms import FreshConsts
from .base import Ontology

__all__ = ["AxiomaticOntology"]

Dependency = Union[TGD, EGD, EDD]


class AxiomaticOntology(Ontology):
    """The class of all models of a finite dependency set.

    When every member of the set is a tgd, this is a TGD-ontology in the
    paper's sense; :meth:`tgd_class_width` exposes the least ``(n, m)``
    with the set in ``TGD_{n,m}``.
    """

    def __init__(
        self,
        dependencies: Iterable[Dependency],
        schema: Schema | None = None,
    ):
        self._dependencies = tuple(dependencies)
        combined = schema or Schema(())
        for dep in self._dependencies:
            combined = combined.union(dep.schema)
        self._schema = combined
        # Property checkers ask the same membership / witness questions
        # over and over (locality reports share anchors across the whole
        # instance space); memoize both.
        self._contains_cache: dict[Instance, bool] = {}
        self._supersets_cache: dict[tuple[Instance, int], tuple] = {}

    @property
    def dependencies(self) -> tuple[Dependency, ...]:
        return self._dependencies

    @property
    def tgds(self) -> tuple[TGD, ...]:
        return tuple(d for d in self._dependencies if isinstance(d, TGD))

    @property
    def schema(self) -> Schema:
        return self._schema

    def is_tgd_ontology_presentation(self) -> bool:
        """Is the *presentation* a finite set of tgds?  (A semantically
        TGD-axiomatizable ontology may of course be presented otherwise.)
        """
        return all(isinstance(d, TGD) for d in self._dependencies)

    def tgd_class_width(self) -> tuple[int, int]:
        """The least ``(n, m)`` such that the tgds are in ``TGD_{n,m}``."""
        return set_width(self.tgds)

    # ------------------------------------------------------------------
    # Ontology interface
    # ------------------------------------------------------------------

    def contains(self, instance: Instance) -> bool:
        cached = self._contains_cache.get(instance)
        if cached is not None:
            return cached
        target = instance
        if not self._schema <= instance.schema:
            target = instance.with_schema(
                instance.schema.union(self._schema)
            )
        verdict = all(
            dep.satisfied_by(target) for dep in self._dependencies
        )
        if len(self._contains_cache) < 200_000:
            self._contains_cache[instance] = verdict
        return verdict

    def members(self, max_domain_size: int) -> Iterator[Instance]:
        for candidate in all_instances_up_to(self._schema, max_domain_size):
            if self.contains(candidate):
                yield candidate

    # Brute-force extension search is capped at this many optional facts
    # (the enumeration is 2^optional); beyond it only the chase witness
    # is offered.
    BRUTE_FORCE_FACT_LIMIT = 8

    def supersets_of(
        self, anchor: Instance, extra_budget: int
    ) -> Iterator[Instance]:
        key = (anchor, extra_budget)
        cached = self._supersets_cache.get(key)
        if cached is None:
            candidates = list(self._compute_supersets(anchor, extra_budget))
            cached = tuple(_minimal_by_facts(candidates))
            if len(self._supersets_cache) < 10_000:
                self._supersets_cache[key] = cached
        yield from cached

    def _compute_supersets(
        self, anchor: Instance, extra_budget: int
    ) -> Iterator[Instance]:
        anchor = _align_schema(anchor, self._schema)
        chase_witness = self._chase_witness(anchor)
        if chase_witness is not None:
            yield chase_witness
        for extra in range(extra_budget + 1):
            fresh = FreshConsts("@w", anchor.domain).take(extra)
            if self._optional_fact_count(anchor, extra) > self.BRUTE_FORCE_FACT_LIMIT:
                continue
            for candidate in all_extensions(anchor, fresh):
                if candidate == chase_witness:
                    continue
                if self.contains(candidate):
                    yield candidate

    def _chase_witness(self, anchor: Instance) -> Instance | None:
        """The canonical witness ``J_K = chase(K, Σ)``: a member
        containing the anchor whenever the chase terminates.  Being the
        universal model, it is the most likely witness to embed locally."""
        from ..analysis.certificates import default_budget
        from ..chase.engine import chase
        from ..dependencies.edd import EDD

        if any(isinstance(dep, EDD) for dep in self._dependencies):
            return None
        budget = default_budget(self._dependencies, 10)
        result = chase(anchor, self._dependencies, max_rounds=budget)
        if result.successful:
            return result.instance
        return None

    def _optional_fact_count(self, anchor: Instance, extra: int) -> int:
        size = len(anchor.domain) + extra
        total = sum(size ** rel.arity for rel in self._schema)
        return total - anchor.fact_count()

    def __str__(self) -> str:
        rules = "; ".join(str(d) for d in self._dependencies)
        return f"Mod({rules})"

    def __repr__(self) -> str:
        return f"AxiomaticOntology<{self}>"


def _minimal_by_facts(candidates: list[Instance]) -> list[Instance]:
    """Keep only the ⊆-minimal candidates (by fact sets).

    Sound for witness search: if some member ``W ⊇ K`` has the local
    embedding property, every member between ``K`` and ``W`` has it too
    (neighbourhood members only lose facts), so a minimal one suffices.
    """
    ranked = sorted(candidates, key=lambda inst: inst.fact_count())
    kept: list[Instance] = []
    kept_facts: list[frozenset] = []
    for candidate in ranked:
        facts = candidate.facts()
        if any(smaller <= facts for smaller in kept_facts):
            continue
        kept.append(candidate)
        kept_facts.append(facts)
    return kept


def _align_schema(instance: Instance, schema: Schema) -> Instance:
    if schema <= instance.schema:
        return instance
    return instance.with_schema(instance.schema.union(schema))
