"""Critical instances and duplicating extensions.

* k-critical instances (Section 3.1): every possible tuple over a k-element
  domain is a fact.
* Duplicating extensions, in both the original (oblivious) form of
  Makowsky–Vardi and the paper's corrected *non-oblivious* form
  (Section 5).  Example 5.2 shows the oblivious form breaks closure for
  full tgds; the non-oblivious form repairs it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from ..lang.schema import Relation, Schema
from ..lang.terms import Const, FreshConsts
from .instance import Instance, InstanceError

__all__ = [
    "critical_instance",
    "critical_instance_over",
    "oblivious_duplicating_extension",
    "non_oblivious_duplicating_extension",
    "all_non_oblivious_duplicating_extensions",
]


def critical_instance_over(schema: Schema, domain: Iterable[object]) -> Instance:
    """The critical instance with the given (finite, non-empty) domain."""
    domain = frozenset(domain)
    if not domain:
        raise InstanceError("a critical instance needs a non-empty domain")
    relations: dict[Relation, set[tuple]] = {
        rel: set(itertools.product(domain, repeat=rel.arity))
        for rel in schema
    }
    return Instance(schema, domain, relations)


def critical_instance(schema: Schema, k: int, prefix: str = "c") -> Instance:
    """The k-critical instance over constants ``c0 .. c{k-1}``."""
    if k <= 0:
        raise InstanceError("criticality is defined for k > 0")
    return critical_instance_over(
        schema, (Const(f"{prefix}{i}") for i in range(k))
    )


def _check_duplication_args(
    instance: Instance, source: object, fresh: object
) -> None:
    if source not in instance.domain:
        raise InstanceError(f"{source!r} is not in the domain")
    if fresh in instance.domain:
        raise InstanceError(f"{fresh!r} is already in the domain")


def oblivious_duplicating_extension(
    instance: Instance, source: object, fresh: object
) -> Instance:
    """The Makowsky–Vardi duplicating extension (Section 5, original form).

    ``facts(J) = facts(I) ∪ h(facts(I))`` where ``h`` renames *every*
    occurrence of ``source`` to ``fresh``.  The paper shows (Example 5.2)
    that full-tgd ontologies are **not** closed under this operation.
    """
    _check_duplication_args(instance, source, fresh)
    copy = instance.rename({source: fresh})
    domain = instance.domain | {fresh}
    relations = {
        rel: instance.tuples(rel) | copy.tuples(rel) for rel in instance.schema
    }
    return Instance(instance.schema, domain, relations)


def non_oblivious_duplicating_extension(
    instance: Instance, source: object, fresh: object
) -> Instance:
    """The paper's corrected duplicating extension (Definition 5.3 setup).

    ``J`` contains a fact ``R(t̄)`` over ``dom(I) ∪ {fresh}`` iff collapsing
    ``fresh`` back to ``source`` yields a fact of ``I``.  Equivalently:
    every fact of ``I`` is "unmerged" by independently replacing each
    occurrence of ``source`` with either ``source`` or ``fresh``.
    """
    _check_duplication_args(instance, source, fresh)
    relations: dict[Relation, set[tuple]] = {}
    for rel in instance.schema:
        tuples: set[tuple] = set()
        for tup in instance.tuples(rel):
            positions = [i for i, elem in enumerate(tup) if elem == source]
            if not positions:
                tuples.add(tup)
                continue
            for choice in itertools.product(
                (source, fresh), repeat=len(positions)
            ):
                new = list(tup)
                for pos, value in zip(positions, choice):
                    new[pos] = value
                tuples.add(tuple(new))
        relations[rel] = tuples
    return Instance(instance.schema, instance.domain | {fresh}, relations)


def all_non_oblivious_duplicating_extensions(
    instance: Instance, fresh_prefix: str = "@d"
) -> Iterator[tuple[object, Instance]]:
    """Yield ``(duplicated_element, extension)`` for every domain element."""
    fresh = FreshConsts(fresh_prefix, instance.domain)
    for source in sorted(instance.domain, key=repr):
        yield source, non_oblivious_duplicating_extension(
            instance, source, fresh()
        )
