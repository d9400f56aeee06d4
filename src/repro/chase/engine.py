"""The chase procedure.

Given an instance and a set of tgds/egds, the chase repairs violations by
inserting facts with fresh labeled nulls (tgds) or merging elements
(egds), producing a *universal* model when it terminates: a model of Σ
containing the input that maps homomorphically into every such model.
This is the engine behind all entailment checks (Section 9.2 reduces
``Σ ⊨ σ`` to chasing a frozen body — Maier, Mendelzon, Sagiv).

Two variants:

* **restricted** (standard) — a trigger fires only if the head has no
  extension in the current instance;
* **oblivious** — every trigger fires exactly once, regardless.

Two evaluation strategies compute the same result:

* **seminaive** (default) — delta-driven: each round, a dependency's
  body is only matched against joins that touch at least one fact added
  since that dependency was last evaluated, so old triggers are never
  re-derived.  The working state keeps a per-relation, per-position
  hash index that the homomorphism search probes directly.
* **naive** — re-enumerates every trigger of every dependency each
  round (the textbook fixpoint loop).  Kept forever as the reference
  implementation: ``tests/test_differential_chase.py`` cross-checks the
  two engines on randomized scenarios.

Both strategies fire the active triggers of a dependency in a canonical
deterministic order (sorted by the bindings of the universally
quantified variables), which makes the chase output — including the
numbering of invented nulls — a function of ``(instance, dependencies,
variant)`` alone, independent of the evaluation strategy.  That is what
lets the differential harness assert *equality*, not just isomorphism.

Egds are repaired in passes: a pass unions the two sides of every
violation (a constant, or else the smallest null, represents its
class), fails on a class with two constants, and otherwise renames the
state with one incremental merge.  A merge logs the renamed facts as
new, so semi-naive deltas survive it — a trigger that was satisfied
before a renaming stays satisfied after it — and the egd result, like
the tgd result, does not depend on the enumeration order.

General tgd sets need not terminate; the engine takes round/fact budgets
and reports whether it reached a fixpoint.  Use
:func:`repro.chase.termination.is_weakly_acyclic` for a static
termination guarantee.

:func:`chase` is the only chase loop in the package, and every match it
makes runs on the compiled join plans of
:mod:`repro.homomorphisms.plans`.  Callers that need more than the
result plug into its two seams instead of running a loop of their own:
an ``inventor`` replaces null invention (the Skolem chases of
:mod:`repro.analysis.semantic`), and an ``on_fire`` observer sees every
fired trigger with the facts it added (the provenance of
:func:`repro.chase.provenance.traced_chase`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from types import ModuleType
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
    Union,
)

try:  # pragma: no cover - platform dependent
    import resource as _resource_module

    _resource: ModuleType | None = _resource_module
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

from ..dependencies.denial import DenialConstraint
from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..homomorphisms.plans import DEFAULT_ORDER, ORDER_MODES
from ..homomorphisms.search import all_extensions_of, find_extension, satisfies_atoms
from ..instances.instance import Instance
from ..lang.atoms import Atom, Fact
from ..lang.schema import Relation, Schema
from ..lang.terms import Const, FreshNulls, Null, Var, element_sort_key
from ..stats.relation import RelationStats, StatsAccumulator
from ..telemetry import TELEMETRY, MetricsProbe, span

if TYPE_CHECKING:  # pragma: no cover
    from ..telemetry.report import RunReport

__all__ = [
    "ChaseResult", "ChaseError", "ChaseMonitorStop", "StopReason",
    "chase", "Inventor", "STRATEGIES",
]

Dependency = Union[TGD, EGD, DenialConstraint]

STRATEGIES = ("seminaive", "naive")

# A pluggable term inventor: called once per existential variable of a
# firing trigger with (tgd, variable, assignment-so-far) and returns the
# domain element to substitute.  The default (None) invents fresh
# labeled nulls; repro.analysis.semantic plugs in Skolem-term builders
# whose cycle monitors abort the run by raising ChaseMonitorStop.
Inventor = Callable[[TGD, Var, Mapping[Var, object]], object]

# An observer of tgd firings: called after each fired trigger with
# (tgd, trigger, facts the firing newly added).
FiringHook = Callable[[TGD, Mapping[Var, object], tuple[Fact, ...]], None]


class ChaseError(ValueError):
    """Raised on invalid chase configuration."""


class ChaseMonitorStop(Exception):
    """Raised by an :data:`Inventor` to abort the chase.

    The engine converts it into a clean non-terminated result with
    ``stop_reason == StopReason.MONITOR`` — the seam the chase-based
    acyclicity analyses (MSA/MFA) use to stop as soon as their cycle
    monitor finds a Skolem function nested inside itself.
    """


class StopReason:
    """Why a chase run stopped (``ChaseResult.stop_reason``)."""

    FIXPOINT = "fixpoint"
    ROUND_BUDGET = "round_budget"
    FACT_BUDGET = "fact_budget"
    MEMORY = "memory_budget"
    EGD_FAILURE = "egd_failure"
    DENIAL_VIOLATION = "denial_violation"
    MONITOR = "monitor"

    ALL = (FIXPOINT, ROUND_BUDGET, FACT_BUDGET, MEMORY, EGD_FAILURE,
           DENIAL_VIOLATION, MONITOR)


@dataclass(frozen=True)
class ChaseResult:
    """The outcome of a chase run.

    ``terminated`` — a fixpoint was reached within the budget.
    ``failed`` — an egd required two distinct constants to be equal, or
    a denial constraint fired.  When ``failed`` is true, ``instance`` is
    the state at failure time: for an egd, the state before the repair
    pass that found the clash.

    ``stop_reason`` makes the cause explicit (the bare flags cannot
    separate "round budget" from "fact budget", nor an egd clash from a
    denial violation): one of :class:`StopReason`'s values.

    ``metrics`` is the counter delta observed during this run when
    telemetry was enabled (``{}`` otherwise) — e.g.
    ``{"chase.triggers_fired": 12, "hom.backtracks": 90}``.

    ``config`` records the effective run configuration (variant,
    strategy, join order, certificate mode, budgets) — what
    :meth:`run_report` freezes into the ``RunReport`` artifact.
    """

    instance: Instance
    terminated: bool
    failed: bool
    rounds: int
    fired: int
    nulls_created: int
    stop_reason: str = ""
    metrics: Mapping[str, int] = field(default_factory=dict, compare=False)
    config: Mapping[str, object] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.stop_reason:
            # Best-effort inference for constructions that predate
            # stop_reason; budget kinds are not distinguishable here.
            if self.failed:
                inferred = StopReason.EGD_FAILURE
            elif self.terminated:
                inferred = StopReason.FIXPOINT
            else:
                inferred = StopReason.ROUND_BUDGET
            object.__setattr__(self, "stop_reason", inferred)

    @property
    def successful(self) -> bool:
        return self.terminated and not self.failed

    def run_report(self) -> "RunReport":
        """The schema-versioned observability artifact for this run:
        the recorded configuration plus this run's counter delta and
        the process-wide histogram state (see
        :mod:`repro.telemetry.report`)."""
        from ..telemetry.report import RunReport, build_run_report

        report: RunReport = build_run_report(
            "chase", self.config, counters=self.metrics
        )
        return report


class _State:
    """Mutable chase working state with an incremental positional index.

    Exposes the same probe interface as :class:`Instance`
    (``tuples`` / ``tuples_with``), so the homomorphism search runs
    directly against the live state — no snapshot copies on the hot
    path.

    The index holds one ``{element: bucket}`` dict per relation and
    position, built on the first ``tuples_with`` probe of that position;
    ``add`` maintains only the positions already built, and ``merge``
    builds the ones it needs.  A chase whose plans never probe a
    position never pays for indexing it.  Likewise the per-relation
    statistics are built on the first ``relation_stats`` read (only
    ``order="adaptive"`` reads them) and maintained incrementally after
    that.

    Semi-naive bookkeeping: every genuinely new fact is appended to
    ``log``; per-dependency cursors into the log define the delta each
    dependency still has to see.  An egd merge removes the facts that
    hold a dropped element and appends their renamed images to the log,
    so deltas survive merges; the delta readers skip logged facts that a
    merge has since removed.  ``canonical_log`` orders the facts the
    state starts with canonically (per relation, by
    :func:`element_sort_key`); only a chunked sweep, which slices the
    log, needs that order.
    """

    def __init__(
        self, instance: Instance, schema: Schema, *, canonical_log: bool = False
    ) -> None:
        self.schema = schema
        self.domain: set[object] = set(instance.domain)
        self.relations: dict[Relation, set[tuple[object, ...]]] = {
            rel: set(
                instance.tuples(rel.name)
                if rel.name in instance.schema
                else ()
            )
            for rel in schema
        }
        self.epoch = 0
        self.log: list[tuple[Relation, tuple[object, ...]]] = [
            (rel, tup)
            for rel, tuples in self.relations.items()
            for tup in (
                sorted(tuples, key=element_sort_key)
                if canonical_log
                else tuples
            )
        ]
        self._index: dict[
            Relation, list[dict[object, set[tuple[object, ...]]] | None]
        ] = {rel: [None] * rel.arity for rel in schema}
        self._sorted: dict[object, tuple[int, tuple[tuple[object, ...], ...]]] = {}
        self._stats: dict[Relation, StatsAccumulator] = {}

    def _position(
        self, relation: Relation, position: int
    ) -> dict[object, set[tuple[object, ...]]]:
        """The index of one relation position, built on first use."""
        buckets = self._index[relation][position]
        if buckets is None:
            buckets = {}
            for tup in self.relations[relation]:
                bucket = buckets.get(tup[position])
                if bucket is None:
                    buckets[tup[position]] = {tup}
                else:
                    bucket.add(tup)
            self._index[relation][position] = buckets
        return buckets

    def _recount(self, relation: Relation) -> None:
        """Recompute one relation's statistics from its index."""
        stats = StatsAccumulator(relation.arity)
        stats.rows = len(self.relations[relation])
        for pos in range(relation.arity):
            buckets = self._position(relation, pos)
            stats.distinct[pos] = len(buckets)
            stats.max_bucket[pos] = max(map(len, buckets.values()), default=0)
        self._stats[relation] = stats

    # -- Instance-compatible probe interface ---------------------------

    def tuples(self, relation: Relation) -> set:
        return self.relations[relation]

    def tuples_with(
        self, relation: Relation, position: int, element: object
    ) -> set:
        buckets = self._index[relation][position]
        if buckets is None:
            buckets = self._position(relation, position)
        bucket = buckets.get(element)
        return bucket if bucket is not None else _EMPTY_SET

    def relation_stats(self, relation: Relation) -> RelationStats:
        """An O(arity) snapshot of the relation's statistics — the
        adaptive ordering strategy's stats hook.  The first read builds
        them; ``add`` and ``merge`` keep them current afterwards."""
        if relation not in self._stats:
            self._recount(relation)
        return self._stats[relation].snapshot()

    # -- sorted views for the compiled join plans ----------------------
    #
    # The compiled search path enumerates candidates in the canonical
    # element_sort_key order.  Sorting a live set per recursion node
    # would defeat the plan; instead a sorted copy of each consulted
    # bucket is cached and invalidated by the mutation epoch, so
    # enumeration between mutations sorts each bucket at most once.

    def sorted_tuples(
        self, relation: Relation
    ) -> tuple[tuple[object, ...], ...]:
        entry = self._sorted.get(relation)
        if entry is None or entry[0] != self.epoch:
            data = tuple(
                sorted(self.relations[relation], key=element_sort_key)
            )
            self._sorted[relation] = (self.epoch, data)
            return data
        return entry[1]

    def sorted_tuples_with(
        self, relation: Relation, position: int, element: object
    ) -> tuple[tuple[object, ...], ...]:
        key = (relation, position, element)
        entry = self._sorted.get(key)
        if entry is None or entry[0] != self.epoch:
            data = tuple(
                sorted(
                    self.tuples_with(relation, position, element),
                    key=element_sort_key,
                )
            )
            self._sorted[key] = (self.epoch, data)
            return data
        return entry[1]

    # -- mutation ------------------------------------------------------

    def snapshot(self) -> Instance:
        return Instance(self.schema, self.domain, self.relations)

    def fact_count(self) -> int:
        return sum(len(tuples) for tuples in self.relations.values())

    def add(self, relation: Relation, tup: tuple) -> bool:
        self.domain.update(tup)
        tuples = self.relations[relation]
        if tup in tuples:
            return False
        tuples.add(tup)
        self.epoch += 1
        index = self._index[relation]
        for buckets, elem in zip(index, tup):
            if buckets is not None:
                bucket = buckets.get(elem)
                if bucket is None:
                    buckets[elem] = {tup}
                else:
                    bucket.add(tup)
        stats = self._stats.get(relation)
        if stats is not None:
            # Statistics exist only once every position is indexed.
            stats.record([
                len(buckets[elem])  # type: ignore[index]
                for buckets, elem in zip(index, tup)
            ])
        self.log.append((relation, tup))
        return True

    def merge(self, renaming: Mapping[object, object]) -> None:
        """Apply ``renaming`` (``{drop: keep}``) to the facts.

        Only the facts holding a dropped element are touched, found
        through the positional index (built at every position here):
        each leaves its relation and its buckets, and its renamed image
        is added (and logged, in canonical order) unless already
        present.  Statistics already built are recomputed for the
        touched relations only.
        """
        self.domain.difference_update(renaming)
        self.domain.update(renaming.values())
        self.epoch += 1
        for rel, tuples in self.relations.items():
            index = [self._position(rel, pos) for pos in range(rel.arity)]
            touched = {
                tup
                for buckets in index
                for drop in renaming
                for tup in buckets.get(drop, ())
            }
            if not touched:
                continue
            tuples -= touched
            for tup in touched:
                for buckets, elem in zip(index, tup):
                    bucket = buckets[elem]
                    bucket.discard(tup)
                    if not bucket:
                        del buckets[elem]
            renamed = {
                tuple(renaming.get(elem, elem) for elem in tup)
                for tup in touched
            }
            for tup in sorted(renamed, key=element_sort_key):
                self.add(rel, tup)
            if rel in self._stats:
                self._recount(rel)


_EMPTY_SET: frozenset = frozenset()


def _peak_rss_kb() -> int:
    """The process's peak resident set size in KB.

    Returns 0 when the platform exposes no ``resource`` module; a
    memory budget then never trips (graceful degradation — the chase
    still runs, just unbounded).  ``ru_maxrss`` is a high-water mark:
    once the process has ever exceeded a budget, every later check
    trips too, which is exactly the semantics a peak-RSS budget wants.
    """
    if _resource is None:  # pragma: no cover - non-POSIX
        return 0
    peak = int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover - reported in bytes
        peak //= 1024
    return peak


def _unify_atom(atom: Atom, tup: tuple[object, ...]) -> dict[Var, object] | None:
    """Match one atom against one fact; ``None`` on clash."""
    partial: dict[Var, object] = {}
    for arg, elem in zip(atom.args, tup):
        if isinstance(arg, Const):
            if arg != elem:
                return None
        else:
            expected = partial.get(arg)
            if expected is None:
                partial[arg] = elem
            elif expected != elem:
                return None
    return partial


def _enumerate_triggers(
    state: _State,
    dep: TGD,
    start: int | None,
    strategy: str,
    order: str | None,
) -> list[dict[Var, object]]:
    """The dependency's candidate triggers for this sweep, canonically
    ordered.

    ``naive`` re-enumerates every body match, as does the first sweep
    of a dependency (``start`` is ``None``).  ``seminaive`` joins each
    body atom in turn against the delta (the live facts logged since
    log position ``start``) and the remaining atoms against the full
    state, so every returned trigger touches at least one new fact;
    triggers whose body is entirely old were already enumerated by an
    earlier sweep.  An egd merge keeps this exact: it logs the renamed
    facts as new, and a trigger satisfied before a renaming stays
    satisfied after it.
    """
    univ = dep.universal_variables
    if strategy == "naive" or start is None:
        triggers = list(
            all_extensions_of(dep.body, state, order=order)
        )
    else:
        triggers = []
        delta = state.log[start:]
        if dep.body and delta:
            relations = state.relations
            by_rel: dict[Relation, list[tuple[object, ...]]] = {
                atom.relation: [] for atom in dep.body
            }
            for rel, tup in delta:
                new_tuples = by_rel.get(rel)
                # Skip facts an egd merge has renamed since they were
                # logged; their images are logged after them.
                if new_tuples is not None and tup in relations[rel]:
                    new_tuples.append(tup)
            seen: set[tuple[object, ...]] = set()
            for i, atom in enumerate(dep.body):
                new_tuples = by_rel[atom.relation]
                if not new_tuples:
                    continue
                rest = dep.body[:i] + dep.body[i + 1:]
                for tup in new_tuples:
                    partial = _unify_atom(atom, tup)
                    if partial is None:
                        continue
                    for trig in all_extensions_of(
                        rest, state, partial, order=order
                    ):
                        key = tuple(trig[v] for v in univ)
                        if key not in seen:
                            seen.add(key)
                            triggers.append(trig)
    # Canonical firing order: by the frontier-to-be bindings.  Makes the
    # fired sequence (and hence null numbering) strategy-independent.
    triggers.sort(
        key=lambda trig: tuple(element_sort_key(trig[v]) for v in univ)
    )
    return triggers


def _delta_trigger_chunks(
    state: _State,
    dep: TGD,
    start: int,
    stop: int,
    order: str | None,
    chunk: int,
) -> Iterator[list[dict[Var, object]]]:
    """A memory-bounded semi-naive sweep: the dependency's triggers in
    canonically-sorted batches, at most one delta slice's worth
    materialized at a time.

    The unchunked sweep materializes *every* candidate trigger before
    firing any; at 10^6 delta facts that list dominates peak memory.
    Here the delta (the log from position ``start`` to ``stop``; the
    whole log on a first sweep) is consumed in slices of ``chunk``
    facts, skipping facts an egd merge has since renamed: each slice's
    triggers are joined, deduplicated by binding key, sorted, and
    handed back for firing before the next slice is touched.  Every
    batch is fully materialized before the caller mutates the state, so
    no paused join enumeration ever observes a mutation.

    Firing between batches changes what later batches join against, so
    the global firing order differs from the unchunked sweep's single
    canonical sort.  For full-tgd dependencies the final instance is
    unchanged (the restricted chase of full tgds computes the unique
    least fixpoint under any fair order); with existential heads the
    run still yields a universal model, but its null numbering may
    differ from the unchunked run's.  Either way the result is a pure
    function of the inputs — batches are deterministic slices of a
    deterministically ordered log.  A binding whose body facts span two
    slices is enumerated in both batches; the engine's activity check
    (or oblivious done-set) keeps it from firing twice.
    """
    univ = dep.universal_variables
    body = dep.body
    if not body:
        # A variable-free body matches at most once; no delta to slice.
        triggers = list(
            all_extensions_of(body, state, order=order)
        )
        if triggers:
            yield triggers
        return
    log = state.log
    relations = state.relations
    body_relations = {atom.relation for atom in body}
    sort_key = lambda trig: tuple(  # noqa: E731 - mirrors the plain path
        element_sort_key(trig[v]) for v in univ
    )
    for lo in range(start, stop, chunk):
        batch: list[dict[Var, object]] = []
        seen: set[tuple[object, ...]] = set()
        for rel, tup in log[lo:lo + chunk]:
            if rel not in body_relations or tup not in relations[rel]:
                continue  # unused here, or renamed by an egd merge
            for i, atom in enumerate(body):
                if atom.relation != rel:
                    continue
                partial = _unify_atom(atom, tup)
                if partial is None:
                    continue
                rest = body[:i] + body[i + 1:]
                for trig in all_extensions_of(
                    rest, state, partial, order=order
                ):
                    key = tuple(trig[v] for v in univ)
                    if key not in seen:
                        seen.add(key)
                        batch.append(trig)
        if batch:
            batch.sort(key=sort_key)
            yield batch


def _combined_schema(instance: Instance, deps: Sequence[Dependency]) -> Schema:
    return Schema.combined(
        (instance.schema, *(dep.schema for dep in deps))
    )


def _fire_tgd(
    state: _State,
    tgd: TGD,
    trigger: dict[Var, object],
    nulls: FreshNulls,
    inventor: Inventor | None = None,
    on_fire: FiringHook | None = None,
) -> tuple[int, int]:
    """Add the head image for a trigger; returns (facts_added, nulls_used).

    The new facts are only collected when an ``on_fire`` hook is set,
    which then receives them."""
    assignment = dict(trigger)
    created = 0
    if inventor is None:
        for var in tgd.existential_variables:
            assignment[var] = nulls()
            created += 1
    else:
        for var in tgd.existential_variables:
            assignment[var] = inventor(tgd, var, assignment)
            created += 1
    if on_fire is None:
        added = 0
        for atom in tgd.head:
            tup = tuple(assignment[arg] for arg in atom.args)  # type: ignore[index]
            if state.add(atom.relation, tup):
                added += 1
        return added, created
    facts: list[Fact] = []
    for atom in tgd.head:
        tup = tuple(assignment[arg] for arg in atom.args)  # type: ignore[index]
        if state.add(atom.relation, tup):
            facts.append(Fact(atom.relation, tup))
    on_fire(tgd, trigger, tuple(facts))
    return len(facts), created


def _chase_egd(
    state: _State,
    egd: EGD,
    order: str | None,
) -> tuple[bool, bool]:
    """Repair every violation of one egd; returns (changed, failed).

    Each pass enumerates the body once and unions the two sides of
    every match.  A class is represented by its constant, or else by
    its smallest null in :func:`element_sort_key` order — the element
    a merge of two elements keeps.  The pass fails, leaving the state
    as it found it, as soon as a class would hold two constants;
    otherwise its whole renaming is applied with one ``merge``.  Passes
    repeat until one finds no violation.  The result is the state that
    repairing one violation at a time reaches, whatever the enumeration
    order.
    """
    if egd.is_trivial:
        return (False, False)
    changed = False
    while True:
        parent: dict[object, object] = {}

        def find(elem: object) -> object:
            root = elem
            while root in parent:
                root = parent[root]
            while elem != root:
                parent[elem], elem = root, parent[elem]
            return root

        # Search the live state; it is only mutated after the pass.
        for trigger in all_extensions_of(
            egd.body, state, order=order
        ):
            left = find(trigger[egd.lhs])
            right = find(trigger[egd.rhs])
            if left == right:
                continue
            left_null = isinstance(left, Null)
            right_null = isinstance(right, Null)
            if not left_null and not right_null:
                return (changed, True)  # hard failure: two distinct constants
            if right_null and (
                not left_null
                or element_sort_key(left) < element_sort_key(right)
            ):
                parent[right] = left
            else:
                parent[left] = right
        if not parent:
            return (changed, False)
        state.merge({drop: find(drop) for drop in list(parent)})
        if TELEMETRY.enabled:
            TELEMETRY.count("chase.egd_merges", len(parent))
        changed = True


def chase(
    instance: Instance,
    dependencies: Iterable[Dependency],
    *,
    variant: str = "restricted",
    strategy: str = "seminaive",
    max_rounds: int | None = None,
    max_facts: int | None = None,
    max_memory_mb: int | None = None,
    delta_chunk: int | None = None,
    certificate: str = "off",
    order: str | None = None,
    inventor: Inventor | None = None,
    on_fire: FiringHook | None = None,
) -> ChaseResult:
    """Chase ``instance`` with tgds and egds.

    Egd violations are repaired in passes (see :func:`_chase_egd`); when
    two distinct constants would have to be equal the run fails with
    ``StopReason.EGD_FAILURE``, and ``instance`` is the state before the
    failing repair pass.

    ``max_rounds`` bounds the number of full sweeps over the dependency
    set; ``max_facts`` aborts when the instance grows past the bound.
    With both ``None``, the chase runs until a fixpoint (which may never
    come for non-terminating sets — prefer an explicit budget, or check
    weak acyclicity first).

    ``max_memory_mb`` is a peak-RSS budget: the run stops with
    ``StopReason.MEMORY`` as soon as the process's high-water resident
    set (``getrusage``'s ``ru_maxrss``) exceeds the bound — checked at
    round boundaries, per trigger batch, and every few hundred firings.
    Because it reads a process-wide high-water mark, the budget must
    exceed the RSS at call time to permit any work at all; a run whose
    budget never trips is bit-identical to an unbudgeted one.  On
    platforms without the ``resource`` module the budget never trips.

    ``delta_chunk`` bounds how many delta facts a semi-naive sweep
    joins at a time (see :func:`_delta_trigger_chunks`): instead of
    materializing every candidate trigger of a dependency before
    firing, triggers are produced and fired in per-slice batches, so
    peak memory scales with the chunk (times join fan-out) rather than
    the full delta.  Requires ``strategy="seminaive"``.  Full-tgd sets
    chase to the identical final instance; existential heads still
    yield a deterministic universal model — the same under every hash
    seed, since the log starts in canonical order
    — but null numbering may differ from the unchunked run's, so pair
    it with full-tgd rule sets when bit-identity matters.

    ``certificate="auto"`` consults the memoized termination-certificate
    lattice (:func:`repro.analysis.guarantees_termination`): when a
    certificate guarantees that every chase sequence terminates, the
    round budget is dropped and the run goes to a definitive fixpoint
    (counted by the ``chase.certificate`` telemetry counter);
    ``max_facts`` is kept as a hard safety cap.  For uncertified sets
    the budgets apply unchanged.  The default ``"off"`` never consults
    the analysis.

    ``strategy`` selects the evaluation plan (``"seminaive"`` — delta
    joins over the indexed state, the default — or ``"naive"`` — full
    re-enumeration each round).  Both produce the same result; see the
    module docstring.

    Trigger enumeration, egd violation search, denial checks and
    restricted activity checks all run on the compiled join plans of
    :mod:`repro.homomorphisms.plans`.  (The dynamic-order interpreter
    they are proven stream-identical to lives in the test oracle,
    ``tests/oracles/interpreted.py``.)

    ``order`` selects the atom-ordering strategy of compiled join
    plans: ``"static"`` (the boundness/extent-rank reference order —
    bit-identical results across every other knob) or ``"adaptive"``
    (per-(plan, statistics) orders from the selectivity cost model in
    :mod:`repro.stats`, with a guard-bound fallback to static).
    Adaptive runs produce the *same* chase result as static ones,
    with or without egds: trigger firing order is canonically sorted,
    and an egd repair pass unions every violation before it merges, so
    its renaming does not depend on the enumeration order.

    ``inventor`` overrides the invention of existential witnesses: a
    callable ``(tgd, variable, assignment) -> element`` consulted once
    per existential variable of each firing trigger, in place of fresh
    labeled nulls.  This is the monitored-chase seam of the semantic
    acyclicity analyses (:mod:`repro.analysis.semantic`): an inventor
    may raise :class:`ChaseMonitorStop` to abort the run, which the
    engine reports as a clean ``StopReason.MONITOR`` result.  The
    default ``None`` is the reference fresh-null path, bit-identical to
    every release before the seam existed.

    ``on_fire`` observes the run: it is called as ``on_fire(tgd,
    trigger, added)`` after every fired tgd trigger, where ``added`` is
    the tuple of :class:`~repro.lang.atoms.Fact`\\ s that firing newly
    added (empty when the head image already held).  It works on every
    strategy and variant, and the run is otherwise unchanged —
    :func:`repro.chase.provenance.traced_chase` is built on it.
    """
    deps = sorted(dependencies, key=str)
    if variant not in ("restricted", "oblivious"):
        raise ChaseError(f"unknown chase variant {variant!r}")
    if strategy not in STRATEGIES:
        raise ChaseError(f"unknown chase strategy {strategy!r}")
    if certificate not in ("off", "auto"):
        raise ChaseError(f"unknown certificate mode {certificate!r}")
    if order is not None and order not in ORDER_MODES:
        raise ChaseError(f"unknown join order mode {order!r}")
    effective_order = order if order is not None else DEFAULT_ORDER
    if max_memory_mb is not None and max_memory_mb < 1:
        raise ChaseError(
            f"max_memory_mb must be >= 1, got {max_memory_mb}"
        )
    if delta_chunk is not None:
        if delta_chunk < 1:
            raise ChaseError(
                f"delta_chunk must be >= 1, got {delta_chunk}"
            )
        if strategy != "seminaive":
            raise ChaseError(
                "delta_chunk requires strategy='seminaive' (the naive "
                "strategy has no delta to slice)"
            )
    if certificate == "auto" and max_rounds is not None:
        from ..analysis.certificates import guarantees_termination

        if guarantees_termination(deps):
            max_rounds = None
            if TELEMETRY.enabled:
                TELEMETRY.count("chase.certificate")
    if variant == "oblivious" and any(
        isinstance(d, (EGD, DenialConstraint)) for d in deps
    ):
        raise ChaseError("the oblivious chase supports tgds only")

    config: dict[str, object] = {
        "engine": "chase",
        "variant": variant,
        "strategy": strategy,
        "order": effective_order,
        "certificate": certificate,
        "max_rounds": max_rounds,
        "max_facts": max_facts,
        "max_memory_mb": max_memory_mb,
        "delta_chunk": delta_chunk,
        "dependencies": len(deps),
    }
    if inventor is not None:
        config["monitored"] = True
    schema = _combined_schema(instance, deps)
    memory_kb = None if max_memory_mb is None else max_memory_mb * 1024
    if memory_kb is not None and _peak_rss_kb() > memory_kb:
        # Already over budget before any work: stop ahead of the
        # working-state bootstrap — copying the facts and building the
        # canonical fact log is itself a large allocation at streaming
        # scales, so the budget must gate it, not just the rounds.
        if TELEMETRY.enabled:
            TELEMETRY.count("chase.runs")
            TELEMETRY.count("chase.budget_exhausted")
            TELEMETRY.count("chase.memory_stops")
            peak = _peak_rss_kb()
            if peak:
                TELEMETRY.gauge("proc.peak_rss_kb", float(peak))
        if schema == instance.schema:
            snapshot = instance
        else:
            snapshot = Instance._trusted(
                schema,
                instance.domain,
                {
                    rel: instance._relations.get(rel, _EMPTY_SET)
                    for rel in schema
                },
            )
        return ChaseResult(
            snapshot, False, False, 0, 0, 0,
            stop_reason=StopReason.MEMORY,
            metrics=MetricsProbe().delta(), config=config,
        )
    state = _State(instance, schema, canonical_log=delta_chunk is not None)
    # Per-dependency log positions; None until the first sweep.
    cursors: list[int | None] = [None] * len(deps)
    nulls = FreshNulls()
    fired = 0
    nulls_created = 0
    rounds = 0
    oblivious_done: set[tuple] = set()
    probe = MetricsProbe()

    with span(
        "chase", variant=variant, strategy=strategy, dependencies=len(deps)
    ) as sp:

        def finish(
            terminated: bool, failed: bool, reason: str
        ) -> ChaseResult:
            if TELEMETRY.enabled:
                TELEMETRY.count("chase.runs")
                if reason in (
                    StopReason.ROUND_BUDGET, StopReason.FACT_BUDGET,
                    StopReason.MEMORY,
                ):
                    TELEMETRY.count("chase.budget_exhausted")
                if reason == StopReason.MEMORY:
                    TELEMETRY.count("chase.memory_stops")
                peak = _peak_rss_kb()
                if peak:
                    TELEMETRY.gauge("proc.peak_rss_kb", float(peak))
            sp.set(stop_reason=reason, rounds=rounds, fired=fired)
            return ChaseResult(
                state.snapshot(), terminated, failed, rounds, fired,
                nulls_created, stop_reason=reason, metrics=probe.delta(),
                config=config,
            )

        while True:
            if max_rounds is not None and rounds >= max_rounds:
                return finish(False, False, StopReason.ROUND_BUDGET)
            if memory_kb is not None and _peak_rss_kb() > memory_kb:
                return finish(False, False, StopReason.MEMORY)
            rounds += 1
            if TELEMETRY.enabled:
                TELEMETRY.count("chase.rounds")
            with span("chase.round", round=rounds):
                progressed = False
                round_triggers = 0
                for index, dep in enumerate(deps):
                    if isinstance(dep, DenialConstraint):
                        if find_extension(
                            dep.body, state, order=order
                        ) is not None:
                            return finish(
                                True, True, StopReason.DENIAL_VIOLATION
                            )
                        continue
                    if isinstance(dep, EGD):
                        changed, egd_failed = _chase_egd(
                            state, dep, order
                        )
                        progressed = progressed or changed
                        if egd_failed:
                            return finish(
                                True, True, StopReason.EGD_FAILURE
                            )
                        continue
                    start = cursors[index]
                    stop = cursors[index] = len(state.log)
                    if delta_chunk is None:
                        batches: Iterable[list[dict[Var, object]]] = (
                            _enumerate_triggers(
                                state, dep, start, strategy, order,
                            ),
                        )
                    else:
                        batches = _delta_trigger_chunks(
                            state, dep, start or 0, stop, order,
                            delta_chunk,
                        )
                    for triggers in batches:
                        if (
                            memory_kb is not None
                            and _peak_rss_kb() > memory_kb
                        ):
                            return finish(False, False, StopReason.MEMORY)
                        round_triggers += len(triggers)
                        if TELEMETRY.enabled and triggers:
                            TELEMETRY.count(
                                "chase.triggers_enumerated", len(triggers)
                            )
                        for trigger in triggers:
                            if variant == "oblivious":
                                key = (
                                    index,
                                    tuple(
                                        trigger[v]
                                        for v in dep.universal_variables
                                    ),
                                )
                                if key in oblivious_done:
                                    continue
                                oblivious_done.add(key)
                            else:
                                # Restricted: re-check activity against
                                # the live indexed state (no snapshot
                                # copies).
                                if satisfies_atoms(
                                    dep.head, state, trigger, order=order
                                ):
                                    continue
                            try:
                                added, created = _fire_tgd(
                                    state, dep, trigger, nulls, inventor,
                                    on_fire,
                                )
                            except ChaseMonitorStop:
                                return finish(
                                    False, False, StopReason.MONITOR
                                )
                            fired += 1
                            nulls_created += created
                            if TELEMETRY.enabled:
                                TELEMETRY.count("chase.triggers_fired")
                                if created:
                                    TELEMETRY.count(
                                        "chase.nulls_created", created
                                    )
                                if added:
                                    TELEMETRY.count(
                                        "chase.facts_added", added
                                    )
                            progressed = (
                                progressed or added > 0 or created > 0
                            )
                            if (
                                max_facts is not None
                                and state.fact_count() > max_facts
                            ):
                                return finish(
                                    False, False, StopReason.FACT_BUDGET
                                )
                            if (
                                memory_kb is not None
                                and not fired % 512
                                and _peak_rss_kb() > memory_kb
                            ):
                                return finish(
                                    False, False, StopReason.MEMORY
                                )
                if TELEMETRY.enabled:
                    # Per-round distribution of enumerated tgd triggers:
                    # the semi-naive delta property shows up directly as
                    # a low p50 against the naive strategy's.
                    TELEMETRY.observe("chase.round_triggers", round_triggers)
            if not progressed:
                return finish(True, False, StopReason.FIXPOINT)
