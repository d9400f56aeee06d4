"""Backtracking homomorphism search.

Two flavours are provided:

* **Conjunctive-query matching** — :func:`find_extension` /
  :func:`all_extensions_of`: map the variables of a conjunction of atoms
  into an instance so that every atom becomes a fact.  Constant arguments
  must match exactly (this is what evaluating a "frozen" query needs).

* **Instance-to-instance homomorphisms** — :func:`find_homomorphism` /
  :func:`all_homomorphisms`: a function ``h : dom(I) → dom(J)`` with
  ``h(facts(I)) ⊆ facts(J)``.  Note the paper's homomorphisms do *not*
  fix constants; use ``fixed`` to pin selected elements (e.g. "identity
  on adom(K)" in local embeddability).

There is one execution path: the conjunction is compiled once into a
memoized :class:`~repro.homomorphisms.plans.JoinPlan` (static atom
order, precompiled per-position check-lists, forward checking) and
executed against the target's pre-sorted positional index.  Its
stream (same assignments, same order) is byte-identical to the
dynamic-order interpreter kept as the test oracle in
``tests/oracles/interpreted.py``; that determinism contract is tested
by ``tests/test_join_plans.py``.  A target without pre-sorted views is
enumerated in its own iteration order (see
:func:`~repro.homomorphisms.plans.execute_plan`).

``order="adaptive"`` swaps the static boundness/extent-rank atom order
for one chosen per (conjunction, instance-statistics) by the
selectivity cost model in :mod:`repro.stats.cost` — same assignment
*set*, possibly a different stream sequence, with a guard-bound
fallback to static when the estimated worst case blows up or
statistics are cold.

``hom.index_probes`` counts one per index bucket consulted.
"""

from __future__ import annotations

from typing import Collection, Iterator, Mapping, Protocol, Sequence

from ..instances.instance import Instance
from ..lang.atoms import Atom
from ..lang.schema import Relation
from ..lang.terms import Const, Var, element_sort_key
from ..telemetry import TELEMETRY
from . import plans as _plans
from .plans import (
    ORDER_MODES,
    ORDERINGS,
    PLAN_CACHE,
    _signature_parts,
    compile_plan,
    execute_plan,
)

__all__ = [
    "ProbeTarget",
    "find_extension",
    "all_extensions_of",
    "find_homomorphism",
    "all_homomorphisms",
    "satisfies_atoms",
]


class ProbeTarget(Protocol):
    """Anything exposing the positional-probe interface the search
    matches against: immutable :class:`Instance`\\ s, the chase's
    mutable working state, or any structurally compatible stand-in.
    The stream is canonical only on a target that also offers the
    sorted views ``sorted_tuples`` / ``sorted_tuples_with``."""

    def tuples(
        self, relation: Relation
    ) -> Collection[tuple[object, ...]]: ...

    def tuples_with(
        self, relation: Relation, position: int, element: object
    ) -> Collection[tuple[object, ...]]: ...


def _resolve_order(order: str | None) -> str:
    """The effective atom-ordering strategy."""
    effective = _plans.DEFAULT_ORDER if order is None else order
    if effective not in ORDER_MODES:
        raise ValueError(
            f"unknown order mode {order!r}; expected one of {ORDER_MODES}"
        )
    return effective


def _iterate_compiled(
    atoms: Sequence[Atom],
    target: ProbeTarget,
    assignment: dict[Var, object],
    injective: bool,
    order: str = "static",
) -> Iterator[dict[Var, object]]:
    """Compile (or fetch) the conjunction's plan and execute it."""
    if (
        injective
        and atoms
        and len(set(assignment.values())) != len(assignment)
    ):
        # A non-injective seed can never extend to an injective
        # assignment over a non-empty conjunction.
        return
    # Fully-bound fast path: a ground conjunction (say, the rest of a
    # semi-naive delta join that the delta fact binds completely) is a
    # handful of set membership tests that must not pay for signatures
    # or plan lookups.
    ground: list[tuple[object, ...]] | None = []
    for atom in atoms:
        resolved: list[object] = []
        for arg in atom.args:
            if isinstance(arg, Const):
                resolved.append(arg)
            else:
                value = assignment.get(arg)
                if value is None:
                    ground = None
                    break
                resolved.append(value)
        if ground is None:
            break
        ground.append(tuple(resolved))
    if ground is not None:
        for atom, tup in zip(atoms, ground):
            if tup not in target.tuples(atom.relation):
                return
            if TELEMETRY.enabled:
                TELEMETRY.count("hom.backtracks")
        if TELEMETRY.enabled:
            TELEMETRY.count("hom.matches")
        yield dict(assignment)
        return

    sizes = [len(target.tuples(atom.relation)) for atom in atoms]
    if 0 in sizes:
        # Some atom ranges over an empty relation: no extension exists.
        if TELEMETRY.enabled:
            TELEMETRY.count("hom.forward_prunes")
        return
    key, slot_vars, slot_index = _signature_parts(atoms, assignment, sizes)
    estimates: tuple[int, ...] | None = None
    if order != "static":
        # The strategy may re-order the key (adaptive) or return it
        # unchanged (cold statistics / guard fallback) — either way the
        # plan cache sees a well-formed key.
        key, estimates = ORDERINGS[order].plan_key(key, target)
    plan = PLAN_CACHE.get(key)
    if plan is None:
        plan = compile_plan(key)
        PLAN_CACHE.put(key, plan)
    yield from execute_plan(
        plan, slot_vars, target, assignment, injective, slot_index, estimates
    )


def all_extensions_of(
    atoms: Sequence[Atom],
    target: ProbeTarget,
    partial: Mapping[Var, object] | None = None,
    *,
    injective: bool = False,
    order: str | None = None,
) -> Iterator[dict[Var, object]]:
    """All extensions of ``partial`` mapping every atom to a fact of
    ``target``.  Yields complete assignments (including ``partial``).

    ``order`` selects
    the atom-ordering strategy of the compiled plan (``None`` →
    :data:`repro.homomorphisms.plans.DEFAULT_ORDER`): ``"static"`` is
    the byte-identical reference stream, ``"adaptive"`` re-orders from
    instance statistics and yields the same assignment *set* in a
    possibly different sequence."""
    ordering = _resolve_order(order)
    assignment = dict(partial or {})
    # Keep tuple inputs (frozen rule bodies) intact: the plan layer's
    # identity memo recognizes the same conjunction object across calls.
    atom_seq = atoms if type(atoms) is tuple else tuple(atoms)
    return _iterate_compiled(atom_seq, target, assignment, injective, ordering)


def find_extension(
    atoms: Sequence[Atom],
    target: ProbeTarget,
    partial: Mapping[Var, object] | None = None,
    *,
    injective: bool = False,
    order: str | None = None,
) -> dict[Var, object] | None:
    """The first extension found, or ``None``."""
    for assignment in all_extensions_of(
        atoms, target, partial, injective=injective, order=order,
    ):
        return assignment
    return None


def satisfies_atoms(
    atoms: Sequence[Atom],
    target: ProbeTarget,
    partial: Mapping[Var, object] | None = None,
    *,
    order: str | None = None,
) -> bool:
    """Does some extension of ``partial`` map all atoms into ``target``?"""
    return (
        find_extension(atoms, target, partial, order=order)
        is not None
    )


def _source_as_atoms(source: Instance) -> tuple[list[Atom], dict[object, Var]]:
    """Encode an instance as a conjunction of atoms, one variable per
    active-domain element."""
    as_var: dict[object, Var] = {}
    for i, elem in enumerate(sorted(source.active_domain, key=element_sort_key)):
        as_var[elem] = Var(f"__h{i}")
    atoms = [
        Atom(fact.relation, tuple(as_var[e] for e in fact.elements))
        for fact in sorted(source.facts())
    ]
    return atoms, as_var


def all_homomorphisms(
    source: Instance,
    target: Instance,
    fixed: Mapping[object, object] | None = None,
    *,
    injective: bool = False,
    order: str | None = None,
) -> Iterator[dict[object, object]]:
    """All homomorphisms ``h : dom(source) → dom(target)``.

    ``fixed`` pins selected source elements to target elements.  Inactive
    source elements are mapped to an arbitrary target element (their image
    is unconstrained); if the target domain is empty and the source has
    elements, no homomorphism exists.
    """
    source._check_same_schema(target)
    fixed = dict(fixed or {})
    inactive = source.domain - source.active_domain - set(fixed)
    if source.domain and not target.domain:
        return
    filler = (
        min(target.domain, key=element_sort_key) if target.domain else None
    )
    atoms, as_var = _source_as_atoms(source)
    partial: dict[Var, object] = {}
    for elem, value in fixed.items():
        if elem in as_var:
            partial[as_var[elem]] = value
    for assignment in all_extensions_of(
        atoms, target, partial, injective=injective, order=order,
    ):
        hom: dict[object, object] = {
            elem: assignment[var] for elem, var in as_var.items()
        }
        hom.update(fixed)
        if injective:
            # Inactive elements are unconstrained but must keep the map
            # injective: give each a distinct unused target element.
            used = set(hom.values())
            if len(used) != len(hom):
                continue
            spare = sorted(target.domain - used, key=element_sort_key)
            if len(spare) < len(inactive):
                continue
            for elem, value in zip(sorted(inactive, key=element_sort_key), spare):
                hom[elem] = value
        else:
            for elem in inactive:
                hom[elem] = filler
        yield hom


def find_homomorphism(
    source: Instance,
    target: Instance,
    fixed: Mapping[object, object] | None = None,
    *,
    injective: bool = False,
    order: str | None = None,
) -> dict[object, object] | None:
    """The first homomorphism found, or ``None``."""
    for hom in all_homomorphisms(
        source, target, fixed, injective=injective, order=order,
    ):
        return hom
    return None
