"""Reference head enumeration: the connectivity test the engine's
bit-mask version is proven against.

:func:`repro.dependencies.enumeration.enumerate_heads` gives every atom
of the head pool its existential variables as a bit set once per call
and tests each combination against those.  The reference below
rebuilds ``set(atom.variables()) & existentials`` for every atom of
every combination and walks the sharing graph breadth first.  Both
must yield the same heads in the same order
(``tests/test_dependency_enumeration.py``).

:func:`reference_heads` substitutes the reference for the engine's
``enumerate_heads``, so every tgd enumerator (all of them share one
candidate loop that calls it) runs on the reference too.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.dependencies import enumeration as _enumeration
from repro.lang.atoms import Atom
from repro.lang.schema import Schema
from repro.lang.terms import Var

__all__ = [
    "connected_by_existentials",
    "enumerate_heads",
    "reference_heads",
]


def connected_by_existentials(
    atoms: Sequence[Atom], existentials: frozenset[Var]
) -> bool:
    """Is the atom set a single component of the graph linking atoms that
    share an existential variable?  Atoms without existential variables are
    isolated, so any multi-atom set containing one is disconnected."""
    if len(atoms) <= 1:
        return True
    var_sets = [
        set(atom.variables()) & existentials for atom in atoms
    ]
    if any(not vs for vs in var_sets):
        return False
    seen = {0}
    frontier = [0]
    while frontier:
        current = frontier.pop()
        for other in range(len(atoms)):
            if other not in seen and var_sets[current] & var_sets[other]:
                seen.add(other)
                frontier.append(other)
    return len(seen) == len(atoms)


def enumerate_heads(
    schema: Schema,
    frontier_pool: Sequence[Var],
    m: int,
    *,
    max_atoms: int | None = None,
    connected_only: bool = True,
) -> Iterator[tuple[Atom, ...]]:
    """All candidate heads over ``frontier_pool`` plus ≤ m existential
    variables ``w0, w1, …`` (non-empty conjunctions; connected ones by
    default)."""
    z_pool = tuple(Var(f"w{i}") for i in range(m))
    existentials = frozenset(z_pool)
    all_atoms = _enumeration.atoms_over(schema, tuple(frontier_pool) + z_pool)
    limit = len(all_atoms) if max_atoms is None else min(max_atoms, len(all_atoms))
    for size in range(1, limit + 1):
        for combo in itertools.combinations(all_atoms, size):
            if connected_only and not connected_by_existentials(
                combo, existentials
            ):
                continue
            yield combo


@contextmanager
def reference_heads() -> Iterator[None]:
    """Run every tgd enumeration inside the block on the reference
    ``enumerate_heads``."""
    original = _enumeration.enumerate_heads
    _enumeration.enumerate_heads = enumerate_heads
    try:
        yield
    finally:
        _enumeration.enumerate_heads = original
