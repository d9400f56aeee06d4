"""Exhaustive enumeration of instances over a bounded domain.

The paper's model-theoretic properties quantify over *all* instances; our
validation harness checks them exhaustively over all instances with a
bounded domain.  The space is exponential (``2^{Σ_R k^{ar(R)}}`` instances
over a k-element domain), so these generators are meant for the tiny
schemas used throughout the paper's own examples.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from ..lang.schema import Schema
from ..lang.terms import Const
from .instance import Instance

__all__ = [
    "default_domain",
    "all_instances",
    "all_instances_up_to",
    "all_extensions",
]


def default_domain(size: int, prefix: str = "a") -> tuple[Const, ...]:
    """A canonical domain ``a0 .. a{size-1}``."""
    return tuple(Const(f"{prefix}{i}") for i in range(size))


def _all_tuples(domain: Sequence[object], arity: int) -> list[tuple]:
    return list(itertools.product(domain, repeat=arity))


def all_instances(
    schema: Schema, domain: Sequence[object]
) -> Iterator[Instance]:
    """Every instance with *exactly* the given domain.

    Relations range over all subsets of ``domain^{ar(R)}``.
    """
    per_relation = [
        (rel, _all_tuples(sorted(domain, key=repr), rel.arity))
        for rel in schema
    ]
    subset_iters = [
        [
            frozenset(combo)
            for size in range(len(tuples) + 1)
            for combo in itertools.combinations(tuples, size)
        ]
        for __, tuples in per_relation
    ]
    for choice in itertools.product(*subset_iters):
        relations = {
            rel: chosen
            for (rel, __), chosen in zip(per_relation, choice)
        }
        yield Instance(schema, domain, relations)


def all_instances_up_to(
    schema: Schema, max_domain_size: int, prefix: str = "a"
) -> Iterator[Instance]:
    """Every instance whose domain is ``{a0..a{k-1}}`` for some k ≤ bound.

    Since ontologies are isomorphism-closed, checking a property over this
    family is equivalent to checking it over all instances with at most
    ``max_domain_size`` elements.
    """
    for k in range(max_domain_size + 1):
        yield from all_instances(schema, default_domain(k, prefix))


def all_extensions(
    base: Instance,
    extra_elements: Sequence[object],
) -> Iterator[Instance]:
    """Every instance ``J ⊇ base`` over ``dom(base) ∪ extra_elements``.

    Used to search for the witness ``J_K`` of local embeddability when the
    ontology is given axiomatically: candidates are extensions of ``K`` by
    a bounded number of fresh elements.
    """
    domain = tuple(base.domain) + tuple(extra_elements)
    optional: list = []
    for rel in base.schema:
        existing = base.tuples(rel)
        for tup in itertools.product(domain, repeat=rel.arity):
            if tup not in existing:
                optional.append((rel, tup))
    for size in range(len(optional) + 1):
        for combo in itertools.combinations(optional, size):
            relations = {rel: set(base.tuples(rel)) for rel in base.schema}
            for rel, tup in combo:
                relations[rel].add(tup)
            yield Instance(base.schema, domain, relations)
