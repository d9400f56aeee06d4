"""Random dependency generators (seeded, reproducible).

Used by the property-based tests (Lemmas 3.2/3.4/3.6 hold for *every*
tgd set, so we validate them on random ones) and by the benchmark sweeps.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..dependencies.classes import TGDClass
from ..dependencies.tgd import TGD, DependencyError
from ..lang.atoms import Atom
from ..lang.schema import Relation, Schema
from ..lang.terms import Var

__all__ = ["random_schema", "random_tgd", "random_tgd_set"]


def random_schema(
    rng: random.Random,
    relations: int = 3,
    max_arity: int = 2,
    *,
    min_arity: int = 1,
) -> Schema:
    """A schema ``R0/a0, ..., R{k-1}/a{k-1}`` with random arities."""
    return Schema(
        Relation(f"R{i}", rng.randint(min_arity, max_arity))
        for i in range(relations)
    )


def _random_atom(
    rng: random.Random, schema: Schema, variables: Sequence[Var]
) -> Atom:
    rel = rng.choice(list(schema))
    return Atom(rel, tuple(rng.choice(list(variables)) for __ in range(rel.arity)))


def _guard_atom(
    rng: random.Random, schema: Schema, variables: Sequence[Var]
) -> Atom | None:
    """An atom containing *all* the given variables, if some relation is
    wide enough."""
    wide = [rel for rel in schema if rel.arity >= len(variables)]
    if not wide:
        return None
    rel = rng.choice(wide)
    args = list(variables)
    while len(args) < rel.arity:
        args.append(rng.choice(list(variables)))
    rng.shuffle(args)
    return Atom(rel, tuple(args))


def random_tgd(
    rng: random.Random,
    schema: Schema,
    *,
    cls: TGDClass = TGDClass.TGD,
    body_atoms: int = 2,
    head_atoms: int = 1,
    body_variables: int = 3,
    existential_variables: int = 1,
) -> TGD:
    """A random tgd in the requested class.

    Retries internally until the class constraint is met; raises if the
    schema cannot support it (e.g. guards need a relation of arity ≥
    the body variable count).
    """
    for __ in range(200):
        n_vars = max(1, rng.randint(1, body_variables))
        pool = [Var(f"x{i}") for i in range(n_vars)]
        if cls is TGDClass.LINEAR:
            body = [_random_atom(rng, schema, pool)]
        elif cls is TGDClass.GUARDED:
            used = pool[: rng.randint(1, n_vars)]
            guard = _guard_atom(rng, schema, used)
            if guard is None:
                continue
            pool = used
            body = [guard] + [
                _random_atom(rng, schema, pool)
                for __ in range(rng.randint(0, max(0, body_atoms - 1)))
            ]
        else:
            body = [
                _random_atom(rng, schema, pool)
                for __ in range(max(1, rng.randint(1, body_atoms)))
            ]
        body_vars = sorted(
            {v for atom in body for v in atom.variables()},
            key=lambda v: v.name,
        )
        if not body_vars:
            continue
        m = (
            0
            if cls is TGDClass.FULL
            else rng.randint(0, existential_variables)
        )
        existentials = [Var(f"z{i}") for i in range(m)]
        frontier_budget = rng.randint(0, len(body_vars))
        frontier = body_vars[:frontier_budget] if frontier_budget else []
        head_pool = list(frontier) + existentials
        if not head_pool:
            head_pool = body_vars[:1]
        head = [
            _random_atom(rng, schema, head_pool)
            for __ in range(max(1, rng.randint(1, head_atoms)))
        ]
        try:
            tgd = TGD(tuple(body), tuple(head))
        except DependencyError:
            continue
        if cls is TGDClass.FULL and not tgd.is_full:
            continue
        if cls is TGDClass.LINEAR and not tgd.is_linear:
            continue
        if cls is TGDClass.GUARDED and not tgd.is_guarded:
            continue
        if (
            cls is TGDClass.FRONTIER_GUARDED
            and not tgd.is_frontier_guarded
        ):
            continue
        return tgd
    raise ValueError(
        f"could not generate a {cls} tgd over {schema} with the given shape"
    )


def random_tgd_set(
    rng: random.Random,
    schema: Schema,
    count: int,
    *,
    cls: TGDClass = TGDClass.TGD,
    **shape,
) -> tuple[TGD, ...]:
    return tuple(
        random_tgd(rng, schema, cls=cls, **shape) for __ in range(count)
    )
