"""Compiled join plans: the execution path of the homomorphism search.

A backtracking matcher that re-derives the atom order with an ``O(n)``
scan at every recursion node and re-interprets every argument position
(``isinstance`` / ``dict.get``) for every candidate tuple pays that
again each time the same rule body is matched, thousands of times
across chase rounds.  (That dynamic-order interpreter is kept as the
test oracle, ``tests/oracles/interpreted.py``.)  This module compiles a
conjunction once into a :class:`JoinPlan` and memoizes it, in the
spirit of classical join-ordering results (Ngo et al., worst-case
optimal joins; Gottlob et al., hypertree-width for CQ evaluation): the
variable/atom elimination order is computed *once per conjunction*, and
constraints are propagated eagerly (forward checking).

A plan consists of

* a **static atom order** chosen by the same greedy most-constrained
  heuristic the interpreter applies dynamically (most bound positions
  first, ties broken by the smallest relation extent, then by textual
  position) — join atoms are thereby matched before cartesian atoms;
* a per-step **precomputed check-list**: which positions are constants,
  which must agree with earlier bindings, which repeat a variable
  within the atom, and which bind new variables — replacing the
  per-tuple interpretation loop with precompiled ``(position, kind,
  reference)`` triples;
* **forward-checking probes**: as soon as a step binds a variable,
  every position of a not-yet-matched atom carrying that variable is
  probed against the target's positional index, and the branch is
  abandoned (``hom.forward_prunes``) the moment any bucket is empty.

Determinism contract
--------------------

The compiled path yields *byte-identical* streams to the interpreted
oracle: the same assignments, in the same order, with the same dict key
insertion order.  This works because the interpreter's dynamic choice
at each node depends only on (a) the conjunction's shape, (b) *which*
variables are bound (never on their values), and (c) the relative
order — with ties — of the relation extent sizes.  All three are part
of the plan key, so simulating the selection at compile time visits
atoms in exactly the order the interpreter would.  Candidate order is
preserved because the target's index buckets are stored pre-sorted by
:func:`repro.lang.terms.element_sort_key` (see
:meth:`repro.instances.instance.Instance.tuples_with`), which is the
same key the interpreter sorts by at every node.  Forward checking
only prunes branches that cannot yield an assignment, so it never
changes the stream.

The contract holds for targets with sorted views.  A target without
them (the chase's :meth:`~repro.chase.engine._State.live` view for its
full sweeps) is enumerated in its own iteration order: the same
assignment set and, for a search run to its end, the same counters,
but in a sequence only its caller may rely on canonicalizing.

Pluggable atom orderings
------------------------

Atom ordering is a strategy behind the :class:`Ordering` interface.
``order="static"`` (the default) keeps the byte-identical reference
order above.  ``order="adaptive"`` re-orders atoms per (conjunction,
instance statistics) using the selectivity cost model of
:mod:`repro.stats.cost`: probe targets expose O(1) per-relation statistics
snapshots (``relation_stats``), the model picks the
minimum-estimated-cost order, and a guard bound falls back to the
static order whenever the estimated worst case blows up
(``plan.guard_fallbacks``) or statistics are unavailable
(``plan.order_cold``).  Adaptive plans are cached under a *tagged* key
(the rank component is replaced by ``(-1, *order)``), so static plans
— including every plan-cache-keyed rewriting output — are never
disturbed.  Adaptive streams are correct but not byte-identical to
the reference: the differential grid asserts isomorphism and verdict
equality instead (see ``tests/test_differential_chase.py``).

Plan keys and memoization
-------------------------

Keys are renaming-invariant: variables are replaced by slots numbered
by first occurrence, so ``R(x), S(x, y)`` and ``R(a), S(a, b)`` share a
plan.  (This is exact only for order-preserving renamings — the common
case for frozen rule bodies — and structural otherwise; a missed
sharing costs one extra compile, never correctness.  A plan names no
variable, so sharing it across renamings is safe.)  The key also carries the set of
initially-bound slots and the dense ranks of the relation extent
sizes, so a cached plan is only reused when the interpreter would have
made the same ordering decisions.  The cache is a bounded
:class:`~repro.memo.Memo`; the search path compiles on a miss, and hits
and misses (compiles) are mirrored to the ``hom.plan_hits`` /
``hom.plan_compiles`` telemetry counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from ..lang.atoms import Atom
from ..lang.schema import Relation
from ..lang.terms import Const, Var
from ..memo import Memo, register
from ..stats.cost import MISPREDICT_FACTOR, OrderDecision, choose_order
from ..stats.relation import RelationStats
from ..telemetry import TELEMETRY

__all__ = [
    "ORDER_MODES",
    "DEFAULT_ORDER",
    "JoinPlan",
    "PlanStep",
    "PLAN_CACHE",
    "Ordering",
    "StaticOrdering",
    "AdaptiveOrdering",
    "ORDERINGS",
    "conjunction_signature",
    "compile_plan",
    "execute_plan",
]

DEFAULT_PLAN_CACHE_SIZE = 4096

# Tag marking a plan key's rank component as an explicit atom order
# chosen by an adaptive ordering, ``(-1, *order)``.  Dense extent-size
# ranks are always non-negative, so the tag cannot collide with a
# static key.
_ADAPTIVE_TAG = -1

# Check kinds in PlanStep.checks (kept as ints for the hot filter loop).
_CHECK_CONST = 0  # tup[pos] == payload (a constant)
_CHECK_SLOT = 1  # tup[pos] == values[payload] (an earlier binding)
_CHECK_LOCAL = 2  # tup[pos] == tup[payload] (repeated var in this atom)

# Signature / key type aliases (shape is a tuple of per-atom entries).
_AtomShape = tuple[Relation, tuple[object, ...]]


class _Shape:
    """A conjunction shape with its hash computed once.

    Plan keys embed the (deeply nested) shape tuple; hashing it on
    every cache lookup would re-hash every relation and constant of the
    conjunction per call.  Shapes come out of the shape memo, so the
    same conjunction always presents the same ``_Shape`` instance and
    the identity test below short-circuits the common case; equality
    falls back to the underlying tuples, keeping renaming-invariant
    sharing between distinct-but-equal shapes."""

    __slots__ = ("atoms", "_hash")

    def __init__(self, atoms: tuple[_AtomShape, ...]) -> None:
        self.atoms = atoms
        self._hash = hash(atoms)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, _Shape) and self.atoms == other.atoms

    def __repr__(self) -> str:
        return f"_Shape({self.atoms!r})"


_PlanKey = tuple[_Shape, frozenset[int], tuple[int, ...]]


@dataclass(frozen=True)
class PlanStep:
    """One atom of the plan, fully resolved to slot-level operations.

    ``probes`` lists the bound positions in textual order as
    ``(position, is_slot, payload)`` — a constant payload or a slot to
    read the value from.  ``checks`` is the precompiled per-tuple
    filter; ``binds`` the first-occurrence positions that extend the
    assignment; ``forward`` the ``(relation, position, slot)`` buckets
    to probe right after this step binds its slots.
    """

    relation: Relation
    probes: tuple[tuple[int, bool, object], ...]
    checks: tuple[tuple[int, int, object], ...]
    binds: tuple[tuple[int, int], ...]
    forward: tuple[tuple[Relation, int, int], ...]

    @property
    def fully_bound(self) -> bool:
        return not self.binds


@dataclass(frozen=True)
class JoinPlan:
    """A compiled conjunction: static atom order plus per-step programs.

    ``order`` maps plan steps back to the indices of the input atom
    list (useful for diagnostics and tests).  ``prelude`` lists the
    index buckets determined before any search step runs — constants
    and initially-bound variables of every atom after the first — each
    as ``(relation, position, is_slot, payload)``; an empty bucket
    there proves the conjunction has no extension at all.
    ``bind_order`` is the slot binding sequence, which fixes the key
    insertion order of every yielded assignment.
    """

    key: _PlanKey
    order: tuple[int, ...]
    steps: tuple[PlanStep, ...]
    prelude: tuple[tuple[Relation, int, bool, object], ...]
    bind_order: tuple[int, ...]
    slot_count: int


PLAN_CACHE: Memo[JoinPlan] = register("plans", Memo(
    DEFAULT_PLAN_CACHE_SIZE,
    hit_counter="hom.plan_hits",
    miss_counter="hom.plan_compiles",
    eviction_counter="hom.plan_evictions",
))
"""The process-wide plan memo used by the compiled search path."""


class Ordering:
    """Pluggable atom-ordering strategy for compiled plans.

    Given a static plan key and the target the plan is about to run
    against, :meth:`plan_key` returns the key to compile/fetch under —
    possibly re-ordered — plus optional per-step candidate-pool
    estimates the executor compares actual fan-outs against
    (``plan.mispredictions``).  Returning the input key unchanged (and
    ``None`` estimates) is the fallback every strategy must support.
    """

    name: str = "?"

    def plan_key(
        self, key: _PlanKey, target: object
    ) -> tuple[_PlanKey, tuple[int, ...] | None]:
        raise NotImplementedError


class StaticOrdering(Ordering):
    """The reference strategy: the interpreter-simulating static order
    already encoded in the key, byte-identical to the test oracle's
    dynamic order; the default, and the only order rewriting outputs
    are keyed under."""

    name = "static"

    def plan_key(
        self, key: _PlanKey, target: object
    ) -> tuple[_PlanKey, tuple[int, ...] | None]:
        return key, None


_ORDER_MEMO_CAP = 8192
# Order decisions memoized on (shape, bound slots, quantized stats
# fingerprint): target-independent, so one decision serves every
# instance whose statistics round to the same powers of two.
_OrderMemoKey = tuple[
    _Shape,
    frozenset[int],
    tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...],
]
_ORDER_MEMO: dict[_OrderMemoKey, OrderDecision] = register("order", {})


class AdaptiveOrdering(Ordering):
    """Statistics-driven ordering with guard-bound fallback.

    Consults the target's ``relation_stats`` duck-typed hook (both
    chase working state and :class:`~repro.instances.instance.Instance`
    provide it); cold statistics (no hook, or an empty relation) fall
    back to the static key (``plan.order_cold``), as does a guard-bound
    trip (``plan.guard_fallbacks``).  Successful adaptations count
    ``plan.order_adaptive`` and return the tagged key plus the cost
    model's per-step pool estimates.
    """

    name = "adaptive"

    def plan_key(
        self, key: _PlanKey, target: object
    ) -> tuple[_PlanKey, tuple[int, ...] | None]:
        stats_of = getattr(target, "relation_stats", None)
        if stats_of is None:
            if TELEMETRY.enabled:
                TELEMETRY.count("plan.order_cold")
            return key, None
        wrapper, bound_slots, _ranks = key
        shape = wrapper.atoms
        snapshots: list[RelationStats] = []
        for relation, _args in shape:
            stats: RelationStats | None = stats_of(relation)
            if stats is None or not stats.rows:
                if TELEMETRY.enabled:
                    TELEMETRY.count("plan.order_cold")
                return key, None
            snapshots.append(stats)
        memo_key: _OrderMemoKey = (
            wrapper,
            bound_slots,
            tuple(snap.fingerprint() for snap in snapshots),
        )
        decision = _ORDER_MEMO.get(memo_key)
        if decision is None:
            decision = choose_order(
                [
                    (snapshots[index], shape[index][1])
                    for index in range(len(shape))
                ],
                bound_slots,
            )
            if len(_ORDER_MEMO) >= _ORDER_MEMO_CAP:
                _ORDER_MEMO.clear()
            _ORDER_MEMO[memo_key] = decision
        if decision.guarded:
            if TELEMETRY.enabled:
                TELEMETRY.count("plan.guard_fallbacks")
            return key, None
        if TELEMETRY.enabled:
            TELEMETRY.count("plan.order_adaptive")
        adapted: _PlanKey = (
            wrapper,
            bound_slots,
            (_ADAPTIVE_TAG, *decision.order),
        )
        return adapted, decision.estimates


ORDERINGS: dict[str, Ordering] = {
    "static": StaticOrdering(),
    "adaptive": AdaptiveOrdering(),
}
"""The ordering strategy registry, keyed by the ``order=`` knob."""

ORDER_MODES = tuple(ORDERINGS)
"""Valid values for the ``order`` parameter of the search entry points."""

DEFAULT_ORDER = "static"
"""The ordering used when callers do not choose one explicitly."""


_SHAPE_MEMO_CAP = 65536
_ShapeEntry = tuple[_Shape, dict[Var, int], tuple[Var, ...]]
_SHAPE_MEMO: dict[tuple[Atom, ...], _ShapeEntry] = register("shape", {})
# Identity front-cache: rule bodies are frozen tuples the chase passes
# unchanged thousands of times; recognizing the same object skips even
# the hashing of the atoms.  Values keep a strong reference to the
# keyed tuple, so an id is never reused while its entry is live.
_SHAPE_ID_MEMO: dict[int, tuple[tuple[Atom, ...], _ShapeEntry]] = register(
    "shape_id", {}
)


def _shape_of(atoms: Sequence[Atom]) -> _ShapeEntry:
    """The (shape, var→slot, slot variables) triple of a conjunction,
    memoized on the atom tuple — the chase matches the same frozen rule
    bodies thousands of times, so this is recomputed only for genuinely
    new conjunctions."""
    memo_key: tuple[Atom, ...]
    if isinstance(atoms, tuple):
        ident = _SHAPE_ID_MEMO.get(id(atoms))
        if ident is not None and ident[0] is atoms:
            return ident[1]
        memo_key = atoms
    else:
        memo_key = tuple(atoms)
    entry = _SHAPE_MEMO.get(memo_key)
    if entry is None:
        slot_of: dict[Var, int] = {}
        slot_vars: list[Var] = []
        shape: list[_AtomShape] = []
        for atom in memo_key:
            args_sig: list[object] = []
            for arg in atom.args:
                if isinstance(arg, Const):
                    args_sig.append(arg)
                else:
                    slot = slot_of.get(arg)
                    if slot is None:
                        slot = len(slot_vars)
                        slot_of[arg] = slot
                        slot_vars.append(arg)
                    args_sig.append(slot)
            shape.append((atom.relation, tuple(args_sig)))
        if len(_SHAPE_MEMO) >= _SHAPE_MEMO_CAP:
            _SHAPE_MEMO.clear()
        entry = (_Shape(tuple(shape)), slot_of, tuple(slot_vars))
        _SHAPE_MEMO[memo_key] = entry
    if len(_SHAPE_ID_MEMO) >= _SHAPE_MEMO_CAP:
        _SHAPE_ID_MEMO.clear()
    _SHAPE_ID_MEMO[id(memo_key)] = (memo_key, entry)
    return entry


def _signature_parts(
    atoms: Sequence[Atom],
    bound_vars: Iterable[Var],
    extent_sizes: Sequence[int],
) -> tuple[_PlanKey, tuple[Var, ...], dict[Var, int]]:
    """Internal: the plan key plus the memoized slot tables."""
    shape, slot_of, slot_vars = _shape_of(atoms)
    bound_slots = frozenset(
        slot_of[var] for var in bound_vars if var in slot_of
    )
    rank_of = {
        size: rank for rank, size in enumerate(sorted(set(extent_sizes)))
    }
    ranks = tuple(rank_of[size] for size in extent_sizes)
    return (shape, bound_slots, ranks), slot_vars, slot_of


def conjunction_signature(
    atoms: Sequence[Atom],
    bound_vars: Iterable[Var],
    extent_sizes: Sequence[int],
) -> tuple[_PlanKey, list[Var]]:
    """The renaming-invariant plan key of a conjunction, plus the
    variables backing each slot (first-occurrence order).

    ``extent_sizes`` must align with ``atoms`` (the size of each atom's
    relation extent in the target); only their dense ranks enter the
    key, so instances whose extents compare the same way share plans.
    """
    key, slot_vars, __ = _signature_parts(atoms, bound_vars, extent_sizes)
    return key, list(slot_vars)


def compile_plan(key: _PlanKey) -> JoinPlan:
    """Compile a plan from its key.

    The atom order is obtained by *simulating* the interpreter's
    most-constrained-first selection: at each step, among the remaining
    atoms in textual order, pick the first maximizing ``(bound
    positions, -extent rank)`` — exactly the ``max`` the interpreter
    evaluates per node, but evaluated once.

    Keys whose rank component carries the adaptive tag
    (``(-1, *order)``) skip the simulation and compile the explicit
    atom order an :class:`AdaptiveOrdering` chose instead.
    """
    wrapper, bound_slots, ranks = key
    shape = wrapper.atoms
    explicit: tuple[int, ...] | None = None
    if ranks and ranks[0] == _ADAPTIVE_TAG:
        explicit = ranks[1:]
    remaining = list(range(len(shape)))
    bound: set[int] = set(bound_slots)
    order: list[int] = []
    steps: list[PlanStep] = []

    def boundness(index: int) -> int:
        return sum(
            1
            for arg in shape[index][1]
            if not isinstance(arg, int) or arg in bound
        )

    while remaining:
        if explicit is not None:
            chosen = explicit[len(order)]
        else:
            chosen = max(
                remaining, key=lambda i: (boundness(i), -ranks[i])
            )
        remaining.remove(chosen)
        relation, args = shape[chosen]
        probes: list[tuple[int, bool, object]] = []
        checks: list[tuple[int, int, object]] = []
        binds: list[tuple[int, int]] = []
        local_first: dict[int, int] = {}
        for pos, arg in enumerate(args):
            if not isinstance(arg, int):
                probes.append((pos, False, arg))
                checks.append((pos, _CHECK_CONST, arg))
            elif arg in bound:
                probes.append((pos, True, arg))
                checks.append((pos, _CHECK_SLOT, arg))
            elif arg in local_first:
                checks.append((pos, _CHECK_LOCAL, local_first[arg]))
            else:
                local_first[arg] = pos
                binds.append((pos, arg))
        bound.update(local_first)
        forward: list[tuple[Relation, int, int]] = []
        for later in remaining:
            later_relation, later_args = shape[later]
            for pos, arg in enumerate(later_args):
                if isinstance(arg, int) and arg in local_first:
                    forward.append((later_relation, pos, arg))
        steps.append(
            PlanStep(
                relation,
                tuple(probes),
                tuple(checks),
                tuple(binds),
                tuple(forward),
            )
        )
        order.append(chosen)

    prelude: list[tuple[Relation, int, bool, object]] = []
    for atom_index in order[1:]:
        relation, args = shape[atom_index]
        for pos, arg in enumerate(args):
            if not isinstance(arg, int):
                prelude.append((relation, pos, False, arg))
            elif arg in bound_slots:
                prelude.append((relation, pos, True, arg))

    bind_order = tuple(
        slot for step in steps for (_pos, slot) in step.binds
    )
    slot_count = len(
        {arg for _rel, args in shape for arg in args if isinstance(arg, int)}
    )
    return JoinPlan(
        key, tuple(order), tuple(steps), tuple(prelude), bind_order,
        slot_count,
    )


def execute_plan(
    plan: JoinPlan,
    slot_vars: Sequence[Var],
    target: object,
    partial: Mapping[Var, object],
    injective: bool,
    slot_index: Mapping[Var, int] | None = None,
    estimates: Sequence[int] | None = None,
) -> Iterator[dict[Var, object]]:
    """Run a compiled plan against a target, yielding assignments in
    the interpreter's exact order.

    ``target`` is anything exposing the positional-index probe
    interface (``tuples`` / ``tuples_with``).  The order of the stream
    is the target's: when it offers pre-sorted views
    (``sorted_tuples`` / ``sorted_tuples_with`` — both
    :class:`~repro.instances.instance.Instance` and the chase working
    state do), candidates are enumerated from them, in the canonical
    :func:`~repro.lang.terms.element_sort_key` order the interpreter
    uses; otherwise they are enumerated from ``tuples`` /
    ``tuples_with`` as those iterate.  The assignment *set* and every
    counter of a full enumeration are the same either way; the
    sequence, and the counters of a search that stops early, are
    canonical only on sorted views.

    ``estimates`` (per-step expected candidate-pool sizes from an
    adaptive ordering) are compared against actual fan-outs at the
    ``hom.probe_fanout`` observation point; a pool more than
    :data:`repro.stats.cost.MISPREDICT_FACTOR` times its estimate
    counts one ``plan.mispredictions``.

    The stream leaves no reference cycle behind once it ends or is
    dropped, so reference counting alone frees what it held — for a
    chase, the working state (``tests/test_cycle_free.py``).
    """
    steps = plan.steps
    tuples_of = target.tuples  # type: ignore[attr-defined]
    tuples_with = target.tuples_with  # type: ignore[attr-defined]
    extent_of = getattr(target, "sorted_tuples", tuples_of)
    bucket_of = getattr(target, "sorted_tuples_with", tuples_with)

    values: list[object] = [None] * plan.slot_count
    if slot_index is None:
        slot_index = {var: slot for slot, var in enumerate(slot_vars)}
    for var, value in partial.items():
        # Only variables of the conjunction occupy slots; extras ride
        # along in the yielded dict via ``partial``.
        slot = slot_index.get(var)
        if slot is not None:
            values[slot] = value
    image: set[object] = set(partial.values()) if injective else set()

    # Prelude: constants and initially-bound variables of later atoms
    # must hit non-empty buckets, or the conjunction has no extension.
    for relation, pos, is_slot, payload in plan.prelude:
        probe_value = values[payload] if is_slot else payload  # type: ignore[index]
        if not tuples_with(relation, pos, probe_value):
            if TELEMETRY.enabled:
                TELEMETRY.count("hom.forward_prunes")
            return

    telemetry = TELEMETRY
    depth_count = len(steps)

    def search(depth: int) -> Iterator[dict[Var, object]]:
        if depth == depth_count:
            if telemetry.enabled:
                telemetry.count("hom.matches")
            result: dict[Var, object] = dict(partial)
            for slot in plan.bind_order:
                result[slot_vars[slot]] = values[slot]
            yield result
            return
        step = steps[depth]
        relation = step.relation
        candidates: Sequence[tuple[object, ...]]
        if not step.binds:
            # Fully determined: a single membership test, no probes —
            # mirroring the interpreter's fast path (and its counters).
            ground = tuple(
                values[payload] if is_slot else payload  # type: ignore[index]
                for (_pos, is_slot, payload) in step.probes
            )
            candidates = (
                (ground,) if ground in tuples_of(relation) else ()
            )
        elif step.probes:
            best: Sequence[tuple[object, ...]] | None = None
            best_probe: tuple[int, object] | None = None
            consulted = 0
            empty = False
            for pos, is_slot, payload in step.probes:
                probe_value = values[payload] if is_slot else payload  # type: ignore[index]
                bucket = tuples_with(relation, pos, probe_value)
                consulted += 1
                if not bucket:
                    empty = True
                    break
                if best is None or len(bucket) < len(best):
                    best = bucket
                    best_probe = (pos, probe_value)
            if telemetry.enabled and consulted:
                telemetry.count("hom.index_probes", consulted)
            if empty:
                candidates = ()
            else:
                assert best_probe is not None
                candidates = bucket_of(relation, *best_probe)
        else:
            candidates = extent_of(relation)
        if telemetry.enabled and step.binds:
            # Same fan-out distribution the interpreter records:
            # size of the candidate pool the step actually iterates.
            pool = len(candidates)
            telemetry.observe("hom.probe_fanout", pool)
            if (
                estimates is not None
                and pool > estimates[depth] * MISPREDICT_FACTOR
            ):
                telemetry.count("plan.mispredictions")
        checks = step.checks
        binds = step.binds
        forward = step.forward
        for tup in candidates:
            ok = True
            for pos, kind, payload in checks:
                if kind == _CHECK_CONST:
                    if tup[pos] != payload:
                        ok = False
                        break
                elif kind == _CHECK_SLOT:
                    if tup[pos] != values[payload]:  # type: ignore[index]
                        ok = False
                        break
                elif tup[pos] != tup[payload]:  # type: ignore[index]
                    ok = False
                    break
            if ok:
                added: list[int] = []
                for pos, slot in binds:
                    elem = tup[pos]
                    if injective and elem in image:
                        ok = False
                        break
                    if injective:
                        image.add(elem)
                    values[slot] = elem
                    added.append(slot)
                if ok:
                    pruned = False
                    for fwd_relation, fwd_pos, fwd_slot in forward:
                        if not tuples_with(
                            fwd_relation, fwd_pos, values[fwd_slot]
                        ):
                            pruned = True
                            if telemetry.enabled:
                                telemetry.count("hom.forward_prunes")
                            break
                    if not pruned:
                        yield from search(depth + 1)
                for slot in added:
                    if injective:
                        image.discard(values[slot])
                    values[slot] = None
            if telemetry.enabled:
                telemetry.count("hom.backtracks")

    try:
        yield from search(0)
    finally:
        # ``search`` holds itself through its closure cell; clearing the
        # cell breaks that cycle, so reference counting alone frees the
        # target's bound methods (for a chase, the whole working state).
        del search
