"""Exhaustive enumeration of dependency fragments.

Algorithms 1 and 2 of the paper (Section 9.2) search the *finite* spaces
``LTGD_{n,m}`` and ``GTGD_{n,m}`` over a schema **S**.  The enumerators
here generate those spaces up to variable renaming.

Every tgd space is (bodies) × (heads), as Theorems 9.1/9.2 count it
(:mod:`repro.rewriting.bounds`).  Each class contributes only its
bodies: linear ones are ``()`` plus the canonical atom patterns, guarded
ones ``()`` plus a guard and extra atoms over its variables, general ones
every atom combination up to a size cap.  One loop, :func:`_candidates`,
pairs each body with the heads over its variables
(:func:`enumerate_heads`), builds the tgds and drops renamings.  It
emits all heads of a body in one run, before the next body:
:class:`~repro.search.EntailmentDecider` chases each body once and reads
every head of the run off that chase, so a body split across runs would
be chased once per run.

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


def _subsets(
    items: Sequence, smallest: int, largest: int | None
) -> Iterator[tuple]:
    """The combinations of ``items`` of each size from ``smallest`` to
    ``largest`` (``None``: all of them), smaller sizes first."""
    top = len(items) if largest is None else min(largest, len(items))
    for size in range(smallest, top + 1):
        yield from itertools.combinations(items, size)


def atoms_over(schema: Schema, variables: Sequence[Var]) -> list[Atom]:
    """All atoms ``R(v̄)`` with ``v̄`` over the given variables."""
    return [
        Atom(rel, args)
        for rel in schema
        for args in itertools.product(variables, repeat=rel.arity)
    ]


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
        patterns: list[tuple[int, ...]] = [()]
        for __ in range(rel.arity):
            patterns = [
                pat + (value,)
                for pat in patterns
                for value in range(max(pat, default=-1) + 2)
            ]
        atoms.extend(
            Atom(rel, tuple(pool[i] for i in pat))
            for pat in patterns
            if max(pat, default=-1) < max_variables
        )
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
) -> Iterator[tuple[Atom, ...]]:
    """All candidate heads over ``frontier_pool`` plus ≤ m existential
    variables ``w0, w1, …`` (non-empty conjunctions; connected ones by
    default)."""
    z_pool = _var_pool(m, "w")
    all_atoms = atoms_over(schema, tuple(frontier_pool) + z_pool)
    # Each atom's existential variables, as bits, once per call.
    masks = [
        sum(1 << i for i, z in enumerate(z_pool) if z in atom.args)
        for atom in all_atoms
    ]
    for combo in _subsets(range(len(all_atoms)), 1, max_atoms):
        if connected_only and not _connected([masks[i] for i in combo]):
            continue
        yield tuple(all_atoms[i] for i in combo)


def _candidates(
    schema: Schema,
    bodies: Iterable[tuple[Atom, ...]],
    m: int,
    max_head_atoms: int | None,
    connected_heads_only: bool,
) -> Iterator[TGD]:
    """Each body with every head over its variables, as tgds, one per
    renaming class; malformed ones (``DependencyError``) are skipped.
    ``enumerate_heads`` and ``TGD`` are module globals that tests
    substitute."""
    seen: set[tuple] = set()
    for body in bodies:
        for head in enumerate_heads(
            schema,
            atoms_variables(body),
            m,
            max_atoms=max_head_atoms,
            connected_only=connected_heads_only,
        ):
            try:
                tgd = TGD(body, head)
            except DependencyError:
                continue
            key = canonical_key(tgd)
            if key in seen:
                if TELEMETRY.enabled:
                    TELEMETRY.count("enumeration.duplicates")
                continue
            seen.add(key)
            if TELEMETRY.enabled:
                TELEMETRY.count("enumeration.candidates")
            yield tgd


def _general_bodies(
    schema: Schema, n: int, smallest: int, max_body_atoms: int | None
) -> Iterator[tuple[Atom, ...]]:
    """Every conjunction of ``smallest`` to ``max_body_atoms`` atoms over
    ``x0, …, x(n-1)``."""
    atoms = atoms_over(schema, _var_pool(n, "x"))
    return _subsets(atoms, smallest, max_body_atoms)


def enumerate_linear_tgds(
    schema: Schema,
    n: int,
    m: int,
    *,
    max_head_atoms: int | None = None,
    connected_heads_only: bool = True,
) -> Iterator[TGD]:
    """``LTGD_{n,m}`` over ``schema``, up to renaming.

    Complete up to logical equivalence when ``max_head_atoms is None`` and
    ``connected_heads_only`` (see module docstring).
    """
    bodies = [(), *((atom,) for atom in canonical_atom_patterns(schema, n))]
    return _candidates(schema, bodies, m, max_head_atoms, connected_heads_only)


def enumerate_guarded_tgds(
    schema: Schema,
    n: int,
    m: int,
    *,
    max_extra_body_atoms: int | None = None,
    max_head_atoms: int | None = None,
    connected_heads_only: bool = True,
) -> Iterator[TGD]:
    """``GTGD_{n,m}`` over ``schema``, up to renaming.

    Every guarded body is (guard atom) + (extra atoms over the guard's
    variables), since the guard must contain all universally quantified
    variables.
    """

    def bodies() -> Iterator[tuple[Atom, ...]]:
        yield ()
        for guard in canonical_atom_patterns(schema, n):
            others = [
                atom
                for atom in atoms_over(schema, guard.variables())
                if atom != guard
            ]
            for extra in _subsets(others, 0, max_extra_body_atoms):
                yield (guard, *extra)

    return _candidates(
        schema, bodies(), m, max_head_atoms, connected_heads_only
    )


def enumerate_tgds(
    schema: Schema,
    n: int,
    m: int,
    *,
    max_body_atoms: int | None = 2,
    max_head_atoms: int | None = None,
    connected_heads_only: bool = True,
) -> Iterator[TGD]:
    """``TGD_{n,m}`` over ``schema`` up to renaming, with a body-size cap
    (the unrestricted space is doubly exponential; cap consciously)."""
    return _candidates(
        schema,
        _general_bodies(schema, n, 0, max_body_atoms),
        m,
        max_head_atoms,
        connected_heads_only,
    )


def enumerate_frontier_guarded_tgds(
    schema: Schema,
    n: int,
    m: int,
    *,
    max_body_atoms: int | None = 2,
    max_head_atoms: int | None = None,
    connected_heads_only: bool = True,
) -> Iterator[TGD]:
    """``FGTGD_{n,m}`` over ``schema`` up to renaming (body-size capped)."""
    candidates = enumerate_tgds(
        schema,
        n,
        m,
        max_body_atoms=max_body_atoms,
        max_head_atoms=max_head_atoms,
        connected_heads_only=connected_heads_only,
    )
    return (tgd for tgd in candidates if tgd.is_frontier_guarded)


def enumerate_full_tgds(
    schema: Schema,
    n: int,
    *,
    max_body_atoms: int | None = 2,
) -> Iterator[TGD]:
    """``FTGD_n = TGD_{n,0}`` up to renaming, non-empty bodies only
    (single-atom heads suffice since a full head always decomposes)."""
    return _candidates(
        schema, _general_bodies(schema, n, 1, max_body_atoms), 0, 1, True
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
    for body in _general_bodies(schema, n, 1, max_body_atoms):
        body_vars = atoms_variables(body)
        disjunct_pool: list = [
            ExistentialDisjunct((atom,))
            for atom in atoms_over(schema, body_vars)
        ]
        disjunct_pool.extend(
            EqualityDisjunct(a, b)
            for a, b in itertools.combinations(body_vars, 2)
        )
        for disjuncts in _subsets(disjunct_pool, 1, max_disjuncts):
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
    z_pool = _var_pool(m, "w")
    for body in _general_bodies(schema, n, 0, max_body_atoms):
        body_vars = atoms_variables(body)
        disjunct_pool: list = [
            EqualityDisjunct(a, b)
            for a, b in itertools.combinations(body_vars, 2)
        ]
        disjunct_pool.extend(
            ExistentialDisjunct(combo)
            for combo in _subsets(
                atoms_over(schema, body_vars + z_pool),
                1,
                max_atoms_per_disjunct,
            )
        )
        for disjuncts in _subsets(disjunct_pool, 1, max_disjuncts):
            yield EDD(body, disjuncts)


def is_trivial_tgd(tgd: TGD) -> bool:
    """Head contained in the body — entailed by the empty set."""
    return set(tgd.head) <= set(tgd.body)
