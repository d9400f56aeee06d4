"""The interpreted homomorphism matcher: the reference the compiled
join plans are proven against.

This is the dynamic-order backtracking search the engine used before
join plans were compiled: at every recursion node it re-derives the
most-constrained atom (most bound positions, ties broken by the
smallest relation extent) and sorts the candidate bucket by
:func:`~repro.lang.terms.element_sort_key`.  The compiled plans of
:mod:`repro.homomorphisms.plans` simulate exactly these choices once
per conjunction, so both must yield byte-identical assignment streams
and the same ``hom.matches`` / ``hom.backtracks`` counts
(``tests/test_join_plans.py``, ``tests/test_differential_chase.py``).
``dynamic_order=False`` matches atoms in textual order instead — the
ablation baseline of ``benchmarks/bench_ablations.py``.

:func:`interpreted_search` substitutes this matcher for the engine's,
so a whole chase (or any module that looks the search functions up by
name) runs on the reference path.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import ModuleType
from typing import Iterator, Mapping, Sequence

from repro.chase import engine as _engine
from repro.homomorphisms import search as _search_module
from repro.homomorphisms.search import ProbeTarget
from repro.lang.atoms import Atom
from repro.lang.terms import Const, Var, element_sort_key
from repro.telemetry import TELEMETRY

__all__ = [
    "all_extensions_of",
    "find_extension",
    "satisfies_atoms",
    "interpreted_search",
]


def _candidates(
    atom: Atom,
    target: ProbeTarget,
    assignment: Mapping[Var, object],
) -> list[tuple[object, ...]]:
    """Target tuples compatible with the atom under the assignment.

    Bound positions (constants and already-assigned variables) are used
    to probe the target's per-relation, per-position hash index
    (:meth:`repro.instances.instance.Instance.tuples_with`); the
    smallest matching bucket is then filtered on the remaining
    constraints.  A fully bound atom degenerates to a single set
    membership test, and only fully unbound atoms fall back to the full
    extent.  ``hom.index_probes`` counts every bucket consulted — one
    per bound position, stopping early at the first empty bucket.
    """
    args = atom.args
    bound_values: list[object] = [None] * len(args)
    unbound = 0
    for pos, arg in enumerate(args):
        if isinstance(arg, Const):
            bound_values[pos] = arg
        else:
            value = assignment.get(arg)
            if value is None:
                unbound += 1
            else:
                bound_values[pos] = value
    if not unbound:
        # Every position determined: the only possible match is the
        # ground tuple itself.
        tup = tuple(bound_values)
        return [tup] if tup in target.tuples(atom.relation) else []
    pool = None
    if unbound < len(args):
        consulted = 0
        empty = False
        for pos, value in enumerate(bound_values):
            if value is None:
                continue
            bucket = target.tuples_with(atom.relation, pos, value)
            consulted += 1
            if not bucket:
                empty = True
                break
            if pool is None or len(bucket) < len(pool):
                pool = bucket
        if TELEMETRY.enabled and consulted:
            TELEMETRY.count("hom.index_probes", consulted)
        if empty:
            return []
    if pool is None:
        pool = target.tuples(atom.relation)
    if TELEMETRY.enabled:
        # Fan-out of the chosen pool: how selective the positional index
        # actually was for this atom (the distribution the join-plan
        # optimizer is trying to push toward small buckets).
        TELEMETRY.observe("hom.probe_fanout", len(pool))
    matches: list[tuple[object, ...]] = []
    for tup in pool:
        bound: dict[Var, object] = {}
        ok = True
        for arg, elem in zip(atom.args, tup):
            if isinstance(arg, Const):
                if arg != elem:
                    ok = False
                    break
            else:
                expected = assignment.get(arg, bound.get(arg))
                if expected is None:
                    bound[arg] = elem
                elif expected != elem:
                    ok = False
                    break
        if ok:
            matches.append(tup)
    return matches


def _boundness(atom: Atom, assignment: Mapping[Var, object]) -> int:
    return sum(
        1
        for arg in atom.args
        if isinstance(arg, Const) or arg in assignment
    )


def _search(
    atoms: Sequence[Atom],
    target: ProbeTarget,
    assignment: dict[Var, object],
    injective: bool,
    dynamic_order: bool,
    image: set[object] | None,
) -> Iterator[dict[Var, object]]:
    """The interpreted reference path.

    ``image`` is the running image of the assignment when ``injective``
    (``None`` otherwise): maintaining it alongside the assignment makes
    the injectivity probe O(1) per binding instead of an
    O(|assignment|) scan of ``assignment.values()``.
    """
    if not atoms:
        if TELEMETRY.enabled:
            TELEMETRY.count("hom.matches")
        yield dict(assignment)
        return
    if dynamic_order:
        # Most-constrained-first: maximize bound positions, break ties by
        # the smallest relation extent.  Ablated (vs textual order) in
        # benchmarks/bench_ablations.py; compiled once per conjunction by
        # repro.homomorphisms.plans.
        index = max(
            range(len(atoms)),
            key=lambda i: (
                _boundness(atoms[i], assignment),
                -len(target.tuples(atoms[i].relation)),
            ),
        )
    else:
        index = 0
    atom = atoms[index]
    rest = atoms[:index] + atoms[index + 1 :]
    for tup in sorted(_candidates(atom, target, assignment), key=element_sort_key):
        added: list[Var] = []
        ok = True
        for arg, elem in zip(atom.args, tup):
            if isinstance(arg, Const):
                continue
            if arg in assignment:
                if assignment[arg] != elem:
                    ok = False
                    break
            else:
                if injective:
                    assert image is not None
                    if elem in image:
                        ok = False
                        break
                    image.add(elem)
                assignment[arg] = elem
                added.append(arg)
        if ok:
            yield from _search(
                rest, target, assignment, injective, dynamic_order, image
            )
        if TELEMETRY.enabled:
            # One backtrack per candidate tuple explored and undone.
            TELEMETRY.count("hom.backtracks")
        for var in added:
            if injective:
                assert image is not None
                image.discard(assignment[var])
            del assignment[var]


def all_extensions_of(
    atoms: Sequence[Atom],
    target: ProbeTarget,
    partial: Mapping[Var, object] | None = None,
    *,
    injective: bool = False,
    dynamic_order: bool = True,
) -> Iterator[dict[Var, object]]:
    """The interpreted counterpart of
    :func:`repro.homomorphisms.search.all_extensions_of`."""
    assignment = dict(partial or {})
    return _dispatch(
        tuple(atoms), target, assignment, injective, dynamic_order
    )


def _dispatch(
    atoms: Sequence[Atom],
    target: ProbeTarget,
    assignment: dict[Var, object],
    injective: bool,
    dynamic_order: bool,
) -> Iterator[dict[Var, object]]:
    image: set[object] | None = None
    if injective:
        image = set(assignment.values())
        if atoms and len(image) != len(assignment):
            # A non-injective seed can never extend to an injective
            # assignment over a non-empty conjunction.
            return
    yield from _search(
        atoms, target, assignment, injective, dynamic_order, image
    )


def find_extension(
    atoms: Sequence[Atom],
    target: ProbeTarget,
    partial: Mapping[Var, object] | None = None,
    **options: object,
) -> dict[Var, object] | None:
    """The first interpreted extension found, or ``None``."""
    for assignment in all_extensions_of(
        atoms, target, partial, **options  # type: ignore[arg-type]
    ):
        return assignment
    return None


def satisfies_atoms(
    atoms: Sequence[Atom],
    target: ProbeTarget,
    partial: Mapping[Var, object] | None = None,
    **options: object,
) -> bool:
    """Does some interpreted extension of ``partial`` exist?"""
    return find_extension(atoms, target, partial, **options) is not None


@contextmanager
def interpreted_search(*modules: ModuleType) -> Iterator[None]:
    """Substitute this matcher for the search functions of the chase
    engine and of :mod:`repro.homomorphisms.search` (whose
    instance-homomorphism functions then run on it too), plus those of
    any further ``modules`` that imported them by name."""
    replacements = {
        "all_extensions_of": all_extensions_of,
        "find_extension": find_extension,
        "satisfies_atoms": satisfies_atoms,
    }
    saved = [
        (module, name, getattr(module, name))
        for module in (_engine, _search_module, *modules)
        for name in replacements
        if hasattr(module, name)
    ]
    for module, name, __ in saved:
        setattr(module, name, replacements[name])
    try:
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
