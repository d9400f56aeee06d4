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

Full tgds (the Datalog fragment) take a fast path in the restricted
variant: a full head's only extension is its image, so a trigger is
active exactly when adding that image adds a fact.  The engine fires
it without an activity probe and counts the firing only if it added
something — the same firings, facts and null numbering as checking
first, since the firing order is the same canonical one.

An existential tgd in the restricted variant decides activity once per
frontier binding per sweep.  Its head reads only a trigger's binding of
the frontier, and within one sweep of the tgd the state only grows, so
once the first trigger with a binding is probed — and fired, if it was
active — the head has an extension for that binding for the rest of
the sweep.  Later triggers of the sweep with the same binding are
skipped as not active, without a probe: the same firings, facts and
null numbering as probing each, since the first trigger per binding in
the canonical order is the one a probe-every-trigger loop fires.

Evaluation is semi-naive: each round, a dependency's body is only
matched against joins that touch at least one fact added since that
dependency was last evaluated, so old triggers are never re-derived.
The working state keeps a per-relation, per-position hash index that
the homomorphism search probes directly.  The textbook naive loop, which
re-enumerates every trigger every round, lives in the test oracle
(``tests/oracles/naive.py``); ``tests/test_differential_chase.py``
cross-checks the two on randomized scenarios.

The active triggers of a dependency fire in a canonical deterministic
order (sorted by the bindings of the universally quantified variables),
which makes the chase output — including the numbering of invented
nulls — a function of ``(instance, dependencies, variant)`` alone,
independent of how the triggers were enumerated.  That is what lets the
differential harness assert *equality*, not just isomorphism.

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

from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Mapping,
    Sequence,
    Union,
)

from ..collector import pauses_collector
from ..dependencies.denial import DenialConstraint
from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..homomorphisms.search import all_extensions_of, find_extension, satisfies_atoms
from ..instances.instance import Instance
from ..lang.atoms import Atom, Fact
from ..lang.schema import Relation, Schema
from ..lang.terms import Const, FreshNulls, Null, Var, element_sort_key
from ..telemetry import TELEMETRY, MetricsProbe, span

if TYPE_CHECKING:  # pragma: no cover
    from ..telemetry.report import RunReport

__all__ = [
    "ChaseResult", "ChaseError", "ChaseMonitorStop", "StopReason",
    "chase", "Inventor",
]

Dependency = Union[TGD, EGD, DenialConstraint]

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
    EGD_FAILURE = "egd_failure"
    DENIAL_VIOLATION = "denial_violation"
    MONITOR = "monitor"

    ALL = (FIXPOINT, ROUND_BUDGET, FACT_BUDGET, EGD_FAILURE,
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
    budgets) — what
    :meth:`run_report` freezes into the ``RunReport`` artifact.
    """

    instance: Instance
    terminated: bool
    failed: bool
    rounds: int
    fired: int
    nulls_created: int
    stop_reason: str
    metrics: Mapping[str, int] = field(default_factory=dict, compare=False)
    config: Mapping[str, object] = field(default_factory=dict, compare=False)

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
    position never pays for indexing it.

    Semi-naive bookkeeping: every genuinely new fact is appended to
    ``log``; per-dependency cursors into the log define the delta each
    dependency still has to see.  The facts the state starts with are
    not logged: a dependency's first sweep enumerates every match, and
    its cursor starts after it.  An egd merge removes the facts that
    hold a dropped element and appends their renamed images to the log,
    so deltas survive merges; the delta readers skip logged facts that a
    merge has since removed.  The log's order never reaches the result:
    a sweep sorts the triggers it finds before firing any of them.

    Two enumeration orders: the state itself offers the sorted views
    (``sorted_tuples`` / ``sorted_tuples_with``), so a probe that stops
    at its first match — an existential head's activity check, a denial
    check, any ``find_extension`` — walks the canonical stream and its
    counters do not depend on the hash seed.  :meth:`live` is the view
    for the engine's full sweeps, which enumerate every match and then
    put them in canonical order themselves: it has no sorted views, so
    the join executor iterates the live sets and buckets as they are.

    ``add`` and ``merge`` keep every tuple at its relation's arity and
    every element in ``domain``, so :meth:`snapshot` builds the result
    without re-validating it.
    """

    def __init__(self, instance: Instance, schema: Schema) -> None:
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
        self.log: list[tuple[Relation, tuple[object, ...]]] = []
        self._index: dict[
            Relation, list[dict[object, set[tuple[object, ...]]] | None]
        ] = {rel: [None] * rel.arity for rel in schema}
        self._sorted: dict[object, tuple[int, tuple[tuple[object, ...], ...]]] = {}

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

    def live(self) -> "_LiveSweep":
        """The unsorted view for a full sweep (see the class docstring).

        A new view per call: the state holds no reference to it, so no
        reference cycle keeps the state alive."""
        return _LiveSweep(self)

    # -- mutation ------------------------------------------------------

    def snapshot(self) -> Instance:
        return Instance._trusted(
            self.schema,
            frozenset(self.domain),
            {rel: frozenset(tuples) for rel, tuples in self.relations.items()},
        )

    def fact_count(self) -> int:
        return sum(len(tuples) for tuples in self.relations.values())

    def add(self, relation: Relation, tup: tuple) -> bool:
        tuples = self.relations[relation]
        size = len(tuples)
        tuples.add(tup)
        if len(tuples) == size:
            return False  # already present, its elements in the domain
        self.domain.update(tup)
        self.epoch += 1
        index = self._index[relation]
        for buckets, elem in zip(index, tup):
            if buckets is not None:
                bucket = buckets.get(elem)
                if bucket is None:
                    buckets[elem] = {tup}
                else:
                    bucket.add(tup)
        self.log.append((relation, tup))
        return True

    def merge(self, renaming: Mapping[object, object]) -> None:
        """Apply ``renaming`` (``{drop: keep}``) to the facts.

        Only the facts holding a dropped element are touched, found
        through the positional index (built at every position here):
        each leaves its relation and its buckets, and its renamed image
        is added (and logged, in canonical order) unless already
        present.
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


class _LiveSweep:
    """A :class:`_State`'s probe interface without its sorted views.

    The join executor enumerates a target without sorted views in the
    target's own iteration order, so a sweep through this view pays for
    no bucket sorting.  Only full sweeps whose output the engine puts
    in canonical order afterwards may use it: trigger enumeration
    (sorted by binding) and egd repair passes (folded by union-find).
    """

    __slots__ = ("tuples", "tuples_with")

    def __init__(self, state: _State) -> None:
        self.tuples = state.tuples
        self.tuples_with = state.tuples_with


_EMPTY_SET: frozenset = frozenset()


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


def _firing_order(
    univ: tuple[Var, ...],
) -> Callable[[Mapping[Var, object]], tuple[object, ...]]:
    """The sort key of the canonical firing order: a trigger's bindings
    of ``univ`` under :func:`element_sort_key`.  Every element key is a
    pair, so the keys are concatenated into one flat tuple, which orders
    the same and compares faster than a tuple of pairs."""
    if not univ:
        return lambda trig: ()
    if len(univ) == 1:
        var = univ[0]
        return lambda trig: element_sort_key(trig[var])
    bindings = itemgetter(*univ)
    return lambda trig: tuple(
        chain.from_iterable(map(element_sort_key, bindings(trig)))
    )


def _sweep_triggers(
    state: _State, dep: TGD, start: int | None, stop: int
) -> list[dict[Var, object]]:
    """The dependency's candidate triggers for one sweep, deduplicated
    and in canonical firing order.

    The first sweep of a dependency (``start`` is ``None``) enumerates
    every body match.  Later sweeps are semi-naive: each fact of the
    delta (the facts logged from position ``start`` up to ``stop``),
    except those an egd merge has since renamed (their images are
    logged after them), is unified with every body atom of its
    relation, and the remaining atoms are joined against the full
    state, so every trigger touches at least one new fact; triggers
    whose body is entirely old were enumerated by an earlier sweep.  An
    egd merge keeps this exact: it logs the renamed facts as new, and a
    trigger satisfied before a renaming stays satisfied after it.  An
    empty body matches at most once, so only its first sweep finds it.

    The whole delta is joined before anything fires, so no paused join
    enumeration ever observes a mutation, and the one sort makes the
    firing order — hence the result, null numbering included — a
    function of the triggers found, not of the order the log or the
    live buckets hold them in.
    """
    univ = dep.universal_variables
    body = dep.body
    sweep = state.live()
    sort_key = _firing_order(univ)
    if start is None:
        return sorted(all_extensions_of(body, sweep), key=sort_key)
    # (atom, the other atoms) per body relation, in body order.
    joins: dict[Relation, list[tuple[Atom, tuple[Atom, ...]]]] = {}
    for i, atom in enumerate(body):
        joins.setdefault(atom.relation, []).append(
            (atom, body[:i] + body[i + 1:])
        )
    relations = state.relations
    triggers: list[dict[Var, object]] = []
    seen: set[tuple[object, ...]] = set()
    for rel, tup in state.log[start:stop]:
        atoms = joins.get(rel)
        if atoms is None or tup not in relations[rel]:
            continue  # unused here, or renamed by an egd merge
        for atom, rest in atoms:
            partial = _unify_atom(atom, tup)
            if partial is None:
                continue
            for trig in all_extensions_of(rest, sweep, partial):
                key = tuple(trig[v] for v in univ)
                if key not in seen:
                    seen.add(key)
                    triggers.append(trig)
    triggers.sort(key=sort_key)
    return triggers


def _combined_schema(instance: Instance, deps: Sequence[Dependency]) -> Schema:
    """The instance's schema when it covers every dependency's relations
    (entailment's frozen databases always do), else the union."""
    schema = instance.schema
    if all(
        atom.relation in schema
        for dep in deps
        for atom in (
            chain(dep.body, dep.head) if isinstance(dep, TGD) else dep.body
        )
    ):
        return schema
    return Schema.combined((schema, *(dep.schema for dep in deps)))


def _fire_tgd(
    state: _State,
    tgd: TGD,
    trigger: dict[Var, object],
    nulls: FreshNulls,
    inventor: Inventor | None = None,
    facts: list[Fact] | None = None,
) -> tuple[int, int]:
    """Add the head image for a trigger; returns (facts_added, nulls_used).

    The new facts are appended to ``facts`` when it is given (an
    ``on_fire`` hook is set).  A full tgd's head is built straight from
    the trigger; an existential one extends a copy of it."""
    created = 0
    existential = tgd.existential_variables
    if not existential:
        assignment = trigger
    else:
        assignment = dict(trigger)
        for var in existential:
            assignment[var] = (
                nulls() if inventor is None
                else inventor(tgd, var, assignment)
            )
            created += 1
    added = 0
    for atom in tgd.head:
        tup = tuple(map(assignment.__getitem__, atom.args))  # type: ignore[arg-type]
        if state.add(atom.relation, tup):
            added += 1
            if facts is not None:
                facts.append(Fact(atom.relation, tup))
    return added, created


def _chase_egd(state: _State, egd: EGD) -> tuple[bool, bool]:
    """Repair every violation of one egd; returns (changed, failed).

    Each pass enumerates the body once and unions the two sides of
    every match.  A class is represented by its constant, or else by
    its smallest null in :func:`element_sort_key` order — the element
    a merge of two elements keeps.  A pass that would put two constants
    in one class fails, leaving the state as it found it; otherwise its
    whole renaming is applied with one ``merge``.  Passes repeat until
    one finds no violation.  The result is the state that repairing one
    violation at a time reaches, whatever the enumeration order, so a
    pass sweeps the state's live buckets unsorted (:meth:`_State.live`).
    """
    if egd.is_trivial:
        return (False, False)
    changed = False
    while True:
        parent: dict[object, object] = {}
        clash = False

        def find(elem: object) -> object:
            root = elem
            while root in parent:
                root = parent[root]
            while elem != root:
                parent[elem], elem = root, parent[elem]
            return root

        # Sweep the live buckets unsorted; the state is only mutated
        # after the pass.
        for trigger in all_extensions_of(egd.body, state.live()):
            left = find(trigger[egd.lhs])
            right = find(trigger[egd.rhs])
            if left == right:
                continue
            left_null = isinstance(left, Null)
            right_null = isinstance(right, Null)
            if not left_null and not right_null:
                # Two distinct constants: a hard failure.  The sweep
                # still runs to its end, so its counters do not depend
                # on the bucket order.
                clash = True
                continue
            if right_null and (
                not left_null
                or element_sort_key(left) < element_sort_key(right)
            ):
                parent[right] = left
            else:
                parent[left] = right
        if clash:
            return (changed, True)
        if not parent:
            return (changed, False)
        state.merge({drop: find(drop) for drop in list(parent)})
        if TELEMETRY.enabled:
            TELEMETRY.count("chase.egd_merges", len(parent))
        changed = True


@pauses_collector
def chase(
    instance: Instance,
    dependencies: Iterable[Dependency],
    *,
    variant: str = "restricted",
    max_rounds: int | None = None,
    max_facts: int | None = None,
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
    Each is ``None`` or an integer ``>= 0``; anything else raises
    :class:`ChaseError`.
    With both ``None``, the chase runs until a fixpoint (which may never
    come for non-terminating sets — prefer an explicit budget, or check
    weak acyclicity first).

    Both budgets count only this run's own work, so a budgeted run
    stops at the same point whatever ran earlier in the process.  To
    drop the round budget when a termination certificate guarantees a
    fixpoint, pass ``max_rounds=default_budget(deps, n)``
    (:func:`repro.analysis.certificates.default_budget`).

    Each sweep of a tgd joins its whole semi-naive delta at once and
    fires the triggers in one sorted pass (see :func:`_sweep_triggers`).

    Trigger enumeration, egd violation search, denial checks and
    restricted activity checks all run on the compiled join plans of
    :mod:`repro.homomorphisms.plans`.  (The dynamic-order interpreter
    they are proven stream-identical to lives in the test oracle,
    ``tests/oracles/interpreted.py``.)  A restricted chase checks
    activity only for tgds with existential variables: a full tgd's
    trigger fires directly and counts as fired (and reaches
    ``on_fire``) only if it added a fact, which gives the same
    ``fired``, facts and ``on_fire`` calls as checking first
    (``tests/oracles/restricted.py`` is that reference loop).  An
    existential tgd probes only the first trigger of each frontier
    binding in a sweep; the later ones are not active, since that
    first one found the head's extension or fired and made one (the
    same reference loop probes every trigger).  The set of decided
    bindings is built only for a sweep of at least two triggers whose
    frontier is smaller than the body's variables — otherwise every
    trigger has a binding of its own.  Trigger
    enumeration and egd repair passes sweep the state's live buckets
    unsorted and canonicalize what they find; probes that stop at a
    first match walk the canonical sorted stream, so every counter is
    the same under any hash seed.

    The join plans use one atom order, the static boundness/extent-rank
    order of :mod:`repro.homomorphisms.plans`.  The result does not
    depend on it: trigger firing order is canonically sorted, and an
    egd repair pass unions every violation before it merges, so its
    renaming does not depend on the enumeration order either.

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
    added (empty only for an oblivious re-firing whose head image
    already held).  It works on every variant, and the run
    is otherwise unchanged — :func:`repro.chase.provenance.traced_chase`
    is built on it.

    The run makes no reference cycles, so it runs with the cyclic
    garbage collector paused (:func:`repro.collector.pauses_collector`).
    """
    deps = sorted(dependencies, key=str)
    if variant not in ("restricted", "oblivious"):
        raise ChaseError(f"unknown chase variant {variant!r}")
    if variant == "oblivious" and any(
        isinstance(d, (EGD, DenialConstraint)) for d in deps
    ):
        raise ChaseError("the oblivious chase supports tgds only")
    for name, budget in (
        ("max_rounds", max_rounds), ("max_facts", max_facts)
    ):
        if budget is not None and not (
            isinstance(budget, int) and budget >= 0
        ):
            raise ChaseError(
                f"{name} must be an integer >= 0, got {budget!r}"
            )

    config: dict[str, object] = {
        "engine": "chase",
        "variant": variant,
        "max_rounds": max_rounds,
        "max_facts": max_facts,
        "dependencies": len(deps),
    }
    if inventor is not None:
        config["monitored"] = True
    schema = _combined_schema(instance, deps)
    state = _State(instance, schema)
    # Per-dependency log positions; None until the first sweep.
    cursors: list[int | None] = [None] * len(deps)
    nulls = FreshNulls()
    fired = 0
    nulls_created = 0
    rounds = 0
    oblivious_done: set[tuple] = set()
    probe = MetricsProbe()

    with span("chase", variant=variant, dependencies=len(deps)) as sp:

        def finish(
            terminated: bool, failed: bool, reason: str
        ) -> ChaseResult:
            if TELEMETRY.enabled:
                TELEMETRY.count("chase.runs")
                if reason in (
                    StopReason.ROUND_BUDGET, StopReason.FACT_BUDGET
                ):
                    TELEMETRY.count("chase.budget_exhausted")
            sp.set(stop_reason=reason, rounds=rounds, fired=fired)
            return ChaseResult(
                state.snapshot(), terminated, failed, rounds, fired,
                nulls_created, stop_reason=reason, metrics=probe.delta(),
                config=config,
            )

        while True:
            if max_rounds is not None and rounds >= max_rounds:
                return finish(False, False, StopReason.ROUND_BUDGET)
            rounds += 1
            if TELEMETRY.enabled:
                TELEMETRY.count("chase.rounds")
            with span("chase.round", round=rounds):
                progressed = False
                round_triggers = 0
                for index, dep in enumerate(deps):
                    if isinstance(dep, DenialConstraint):
                        if find_extension(dep.body, state) is not None:
                            return finish(
                                True, True, StopReason.DENIAL_VIOLATION
                            )
                        continue
                    if isinstance(dep, EGD):
                        changed, egd_failed = _chase_egd(state, dep)
                        progressed = progressed or changed
                        if egd_failed:
                            return finish(
                                True, True, StopReason.EGD_FAILURE
                            )
                        continue
                    # The Datalog path: adding a full head's image is
                    # its activity check (see the module docstring).
                    datalog = variant == "restricted" and dep.is_full
                    start = cursors[index]
                    stop = cursors[index] = len(state.log)
                    triggers = _sweep_triggers(state, dep, start, stop)
                    round_triggers += len(triggers)
                    if TELEMETRY.enabled and triggers:
                        TELEMETRY.count(
                            "chase.triggers_enumerated", len(triggers)
                        )
                    # Restricted, existential: one activity probe per
                    # frontier binding per sweep (see the module
                    # docstring).  Only a frontier smaller than the
                    # body's variables lets two triggers share one.
                    decided: set[tuple[object, ...]] | None = None
                    if (
                        variant == "restricted"
                        and not datalog
                        and len(triggers) > 1
                        and len(dep.frontier) < len(dep.universal_variables)
                    ):
                        decided = set()
                        frontier = dep.frontier
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
                        elif not datalog:
                            if decided is not None:
                                binding = tuple(
                                    map(trigger.__getitem__, frontier)
                                )
                                if binding in decided:
                                    # This sweep probed the binding and,
                                    # if it was active, fired it.
                                    continue
                                decided.add(binding)
                            if satisfies_atoms(dep.head, state, trigger):
                                # Restricted, existential head: the head
                                # already has an extension.
                                continue
                        facts: list[Fact] | None = (
                            None if on_fire is None else []
                        )
                        try:
                            added, created = _fire_tgd(
                                state, dep, trigger, nulls, inventor,
                                facts,
                            )
                            if datalog and not added:
                                continue
                            if on_fire is not None:
                                on_fire(dep, trigger, tuple(facts))  # type: ignore[arg-type]
                        except ChaseMonitorStop:
                            return finish(False, False, StopReason.MONITOR)
                        fired += 1
                        nulls_created += created
                        if TELEMETRY.enabled:
                            TELEMETRY.count("chase.triggers_fired")
                            if created:
                                TELEMETRY.count(
                                    "chase.nulls_created", created
                                )
                            if added:
                                TELEMETRY.count("chase.facts_added", added)
                        progressed = progressed or added > 0 or created > 0
                        if (
                            max_facts is not None
                            and state.fact_count() > max_facts
                        ):
                            return finish(
                                False, False, StopReason.FACT_BUDGET
                            )
                if TELEMETRY.enabled:
                    # Per-round distribution of enumerated tgd triggers:
                    # the semi-naive delta property shows up directly as
                    # a low p50.
                    TELEMETRY.observe("chase.round_triggers", round_triggers)
            if not progressed:
                return finish(True, False, StopReason.FIXPOINT)
