"""Exhaustive enumeration of dependency fragments.

Algorithms 1 and 2 of the paper (Section 9.2) search the *finite* spaces
``LTGD_{n,m}`` and ``GTGD_{n,m}`` over a schema **S**.  The enumerators
here generate those spaces up to variable renaming.

Two completeness-preserving reductions keep the spaces manageable:

* **Canonical dedup** — alphabetic variants are generated once
  (:mod:`repro.dependencies.canonical`).
* **Head decomposition** — a head splits into its existentially-connected
  components: ``φ → ∃z̄ (ψ1 ∧ ψ2)`` with ``ψ1, ψ2`` sharing no existential
  variable is equivalent to the two tgds ``φ → ψ1`` and ``φ → ψ2``.
  Enumerating only connected heads therefore loses no logical content;
  the set of all entailed connected-head candidates entails every entailed
  candidate.  (Ablated in benchmarks/bench_enumeration.py via
  ``connected_heads_only=False``.)
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from ..lang.atoms import Atom, atoms_variables
from ..lang.schema import Schema
from ..lang.terms import Var
from ..telemetry import TELEMETRY
from .canonical import canonical_key
from .edd import EDD, EqualityDisjunct, ExistentialDisjunct
from .tgd import TGD, DependencyError

__all__ = [
    "atoms_over",
    "canonical_atom_patterns",
    "enumerate_heads",
    "enumerate_linear_tgds",
    "enumerate_guarded_tgds",
    "enumerate_frontier_guarded_tgds",
    "enumerate_full_tgds",
    "enumerate_tgds",
    "enumerate_dds",
    "enumerate_edds",
    "is_trivial_tgd",
]


def _var_pool(count: int, prefix: str) -> tuple[Var, ...]:
    return tuple(Var(f"{prefix}{i}") for i in range(count))


def atoms_over(schema: Schema, variables: Sequence[Var]) -> list[Atom]:
    """All atoms ``R(v̄)`` with ``v̄`` over the given variables."""
    atoms = []
    for rel in schema:
        for args in itertools.product(variables, repeat=rel.arity):
            atoms.append(Atom(rel, args))
    return atoms


def canonical_atom_patterns(
    schema: Schema, max_variables: int, prefix: str = "x"
) -> list[Atom]:
    """All atoms up to variable renaming, using at most ``max_variables``
    distinct variables.

    Canonical form: argument positions carry variable indices in
    *restricted growth* order — each position either reuses an earlier
    index or introduces the next fresh one — so every renaming class is
    produced exactly once.
    """
    pool = _var_pool(max_variables, prefix)
    atoms: list[Atom] = []
    for rel in schema:
        if rel.arity == 0:
            atoms.append(Atom(rel, ()))
            continue
        patterns: list[list[int]] = [[0]]
        for __ in range(rel.arity - 1):
            grown = []
            for pat in patterns:
                top = max(pat)
                for value in range(top + 2):
                    grown.append(pat + [value])
            patterns = grown
        for pat in patterns:
            if max(pat) + 1 <= max_variables:
                atoms.append(Atom(rel, tuple(pool[i] for i in pat)))
    return atoms


def _connected(masks: Sequence[int]) -> bool:
    """Is the atom set a single component of the graph linking atoms that
    share an existential variable?  ``masks`` holds each atom's
    existential variables as a bit set; atoms without one are isolated,
    so any multi-atom set containing one is disconnected."""
    if len(masks) <= 1:
        return True
    if not all(masks):
        return False
    reached, pending = masks[0], masks[1:]
    while pending:
        left = []
        for mask in pending:
            if mask & reached:
                reached |= mask
            else:
                left.append(mask)
        if len(left) == len(pending):
            return False
        pending = left
    return True


def enumerate_heads(
    schema: Schema,
    frontier_pool: Sequence[Var],
    m: int,
    *,
    max_atoms: int | None = None,
    connected_only: bool = True,
    existential_prefix: str = "w",
) -> Iterator[tuple[Atom, ...]]:
    """All candidate heads over ``frontier_pool`` plus ≤ m existential
    variables (non-empty conjunctions; connected ones by default)."""
    z_pool = _var_pool(m, existential_prefix)
    all_atoms = atoms_over(schema, tuple(frontier_pool) + z_pool)
    # Each atom's existential variables, as bits, once per call.
    masks = [
        sum(1 << i for i, z in enumerate(z_pool) if z in atom.args)
        for atom in all_atoms
    ]
    limit = len(all_atoms) if max_atoms is None else min(max_atoms, len(all_atoms))
    for size in range(1, limit + 1):
        for combo in itertools.combinations(range(len(all_atoms)), size):
            if connected_only and not _connected([masks[i] for i in combo]):
                continue
            yield tuple(all_atoms[i] for i in combo)


def _emit_unique(candidates: Iterable[TGD]) -> Iterator[TGD]:
    seen: set[tuple] = set()
    for tgd in candidates:
        key = canonical_key(tgd)
        if key not in seen:
            seen.add(key)
            if TELEMETRY.enabled:
                TELEMETRY.count("enumeration.candidates")
            yield tgd
        elif TELEMETRY.enabled:
            TELEMETRY.count("enumeration.duplicates")


def enumerate_linear_tgds(
    schema: Schema,
    n: int,
    m: int,
    *,
    max_head_atoms: int | None = None,
    connected_heads_only: bool = True,
    include_empty_body: bool = True,
) -> Iterator[TGD]:
    """``LTGD_{n,m}`` over ``schema``, up to renaming.

    Complete up to logical equivalence when ``max_head_atoms is None`` and
    ``connected_heads_only`` (see module docstring).
    """

    def generate() -> Iterator[TGD]:
        bodies: list[tuple[Atom, ...]] = []
        if include_empty_body:
            bodies.append(())
        bodies.extend((atom,) for atom in canonical_atom_patterns(schema, n))
        for body in bodies:
            frontier_pool = atoms_variables(body)
            for head in enumerate_heads(
                schema,
                frontier_pool,
                m,
                max_atoms=max_head_atoms,
                connected_only=connected_heads_only,
            ):
                try:
                    tgd = TGD(body, head)
                except DependencyError:
                    continue
                yield tgd

    yield from _emit_unique(generate())


def enumerate_guarded_tgds(
    schema: Schema,
    n: int,
    m: int,
    *,
    max_extra_body_atoms: int | None = None,
    max_head_atoms: int | None = None,
    connected_heads_only: bool = True,
    include_empty_body: bool = True,
) -> Iterator[TGD]:
    """``GTGD_{n,m}`` over ``schema``, up to renaming.

    Every guarded body is (guard atom) + (extra atoms over the guard's
    variables), since the guard must contain all universally quantified
    variables.
    """

    def generate() -> Iterator[TGD]:
        bodies: list[tuple[Atom, ...]] = []
        if include_empty_body:
            bodies.append(())
        for guard in canonical_atom_patterns(schema, n):
            guard_vars = guard.variables()
            others = [
                atom
                for atom in atoms_over(schema, guard_vars)
                if atom != guard
            ]
            cap = (
                len(others)
                if max_extra_body_atoms is None
                else min(max_extra_body_atoms, len(others))
            )
            for size in range(cap + 1):
                for extra in itertools.combinations(others, size):
                    bodies.append((guard, *extra))
        for body in bodies:
            frontier_pool = atoms_variables(body)
            for head in enumerate_heads(
                schema,
                frontier_pool,
                m,
                max_atoms=max_head_atoms,
                connected_only=connected_heads_only,
            ):
                try:
                    tgd = TGD(body, head)
                except DependencyError:
                    continue
                yield tgd

    yield from _emit_unique(generate())


def enumerate_tgds(
    schema: Schema,
    n: int,
    m: int,
    *,
    max_body_atoms: int | None = 2,
    max_head_atoms: int | None = None,
    connected_heads_only: bool = True,
    include_empty_body: bool = True,
) -> Iterator[TGD]:
    """``TGD_{n,m}`` over ``schema`` up to renaming, with a body-size cap
    (the unrestricted space is doubly exponential; cap consciously)."""

    def generate() -> Iterator[TGD]:
        pool = _var_pool(n, "x")
        all_atoms = atoms_over(schema, pool)
        cap = (
            len(all_atoms)
            if max_body_atoms is None
            else min(max_body_atoms, len(all_atoms))
        )
        start = 0 if include_empty_body else 1
        for size in range(start, cap + 1):
            for body in itertools.combinations(all_atoms, size):
                frontier_pool = atoms_variables(body)
                for head in enumerate_heads(
                    schema,
                    frontier_pool,
                    m,
                    max_atoms=max_head_atoms,
                    connected_only=connected_heads_only,
                ):
                    try:
                        tgd = TGD(body, head)
                    except DependencyError:
                        continue
                    yield tgd

    yield from _emit_unique(generate())


def enumerate_frontier_guarded_tgds(
    schema: Schema,
    n: int,
    m: int,
    *,
    max_body_atoms: int | None = 2,
    max_head_atoms: int | None = None,
    connected_heads_only: bool = True,
    include_empty_body: bool = True,
) -> Iterator[TGD]:
    """``FGTGD_{n,m}`` over ``schema`` up to renaming (body-size capped)."""
    for tgd in enumerate_tgds(
        schema,
        n,
        m,
        max_body_atoms=max_body_atoms,
        max_head_atoms=max_head_atoms,
        connected_heads_only=connected_heads_only,
        include_empty_body=include_empty_body,
    ):
        if tgd.is_frontier_guarded:
            yield tgd


def enumerate_full_tgds(
    schema: Schema,
    n: int,
    *,
    max_body_atoms: int | None = 2,
) -> Iterator[TGD]:
    """``FTGD_n = TGD_{n,0}`` up to renaming (single-atom heads suffice
    since a full head always decomposes)."""
    yield from enumerate_tgds(
        schema,
        n,
        0,
        max_body_atoms=max_body_atoms,
        max_head_atoms=1,
        include_empty_body=False,
    )


def enumerate_dds(
    schema: Schema,
    n: int,
    *,
    max_body_atoms: int | None = 2,
    max_disjuncts: int = 2,
) -> Iterator[EDD]:
    """Disjunctive dependencies with at most ``n`` variables (Appendix B):
    no existentials, disjuncts are equalities or single atoms over body
    variables."""
    pool = _var_pool(n, "x")
    all_atoms = atoms_over(schema, pool)
    cap = (
        len(all_atoms)
        if max_body_atoms is None
        else min(max_body_atoms, len(all_atoms))
    )
    for size in range(1, cap + 1):
        for body in itertools.combinations(all_atoms, size):
            body_vars = atoms_variables(body)
            disjunct_pool: list = [
                ExistentialDisjunct((atom,))
                for atom in atoms_over(schema, body_vars)
            ]
            disjunct_pool.extend(
                EqualityDisjunct(a, b)
                for a, b in itertools.combinations(body_vars, 2)
            )
            for count in range(1, max_disjuncts + 1):
                for disjuncts in itertools.combinations(disjunct_pool, count):
                    yield EDD(body, disjuncts)


def enumerate_edds(
    schema: Schema,
    n: int,
    m: int,
    *,
    max_body_atoms: int | None = 1,
    max_disjuncts: int = 2,
    max_atoms_per_disjunct: int = 1,
) -> Iterator[EDD]:
    """A fragment of ``E_{n,m}`` (Step 1 of Theorem 4.1): edds with ≤ n
    universal variables whose disjuncts each use ≤ m existentials.

    The full class is doubly exponential; the caps select the fragment to
    generate (the defaults cover the paper's running examples).  Bodies
    may be empty; disjuncts are equalities over body variables or
    existential conjunctions over body + existential variables.
    """
    pool = _var_pool(n, "x")
    z_pool = _var_pool(m, "w")
    all_body_atoms = atoms_over(schema, pool)
    body_cap = (
        len(all_body_atoms)
        if max_body_atoms is None
        else min(max_body_atoms, len(all_body_atoms))
    )
    bodies: list[tuple[Atom, ...]] = [()]
    for size in range(1, body_cap + 1):
        bodies.extend(itertools.combinations(all_body_atoms, size))
    for body in bodies:
        body_vars = atoms_variables(body)
        disjunct_pool: list = [
            EqualityDisjunct(a, b)
            for a, b in itertools.combinations(body_vars, 2)
        ]
        head_atoms = atoms_over(schema, tuple(body_vars) + z_pool)
        for size in range(1, max_atoms_per_disjunct + 1):
            for combo in itertools.combinations(head_atoms, size):
                disjunct_pool.append(ExistentialDisjunct(combo))
        for count in range(1, max_disjuncts + 1):
            for disjuncts in itertools.combinations(disjunct_pool, count):
                yield EDD(body, disjuncts)


def is_trivial_tgd(tgd: TGD) -> bool:
    """Head contained in the body — entailed by the empty set."""
    return set(tgd.head) <= set(tgd.body)
