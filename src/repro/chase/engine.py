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

A restricted sweep of a tgd keeps one trigger per frontier binding:
of the body matches with one binding of the frontier, the first in the
canonical firing order (below).  A head reads only a trigger's
frontier binding, and within one sweep the state only grows, so once
the first trigger of a binding has fired or found the head satisfied,
the head has an extension for that binding for the rest of the sweep
and the later triggers are not active.  Full tgds (the Datalog
fragment) also skip the activity probe: a full head's only extension
is its image, so a trigger is active exactly when adding that image
adds a fact, and the engine fires it directly and counts the firing
only if it added something.  Both give the firings, facts and null
numbering of probing every trigger, since the first trigger per
binding in the canonical order is the one a probe-every-trigger loop
fires.  The oblivious chase keeps one trigger per binding of all the
body variables, which only drops a delta's repeats.  That is enough for
each trigger to fire once: a later sweep finds only the matches that
use a fact logged since the last one, and the oblivious chase has no
egds, so no fact is removed and no match is found twice.

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

Every dependency has a log cursor, and its turn — a tgd's sweep, an
egd's repair pass, a denial check — is skipped while no fact of its
body relations has been logged since its last turn, and on a first
turn while a body relation is empty.  A skipped turn finds nothing:
a tgd's delta sweep only finds matches that use a logged fact; an egd
pass or denial check finds only what the last one found (none), as a
merge logs the facts it renames and removing a fact makes no new
match; and a first turn over an empty relation has no match, while
every match of that relation's later facts is in a later delta.

General tgd sets need not terminate; the engine takes round/fact budgets
and reports whether it reached a fixpoint.  Use
:func:`repro.chase.termination.is_weakly_acyclic` for a static
termination guarantee.

The package has one chase loop, :meth:`ChaseRun.advance`: a run holds
the whole run state and can be advanced round by round, and
:func:`chase` is a run advanced to its end.  Every match the loop
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
from itertools import chain, islice
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
from .state import _State, _StateView

if TYPE_CHECKING:  # pragma: no cover
    from ..telemetry.report import RunReport

__all__ = [
    "ChaseResult", "ChaseError", "ChaseMonitorStop", "ChaseRun",
    "StopReason", "chase", "Inventor",
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
    the same and compares faster than a tuple of pairs (and ``sum``
    builds it faster than ``tuple(chain(...))``)."""
    if not univ:
        return lambda trig: ()
    if len(univ) == 1:
        var = univ[0]
        return lambda trig: element_sort_key(trig[var])
    bindings = itemgetter(*univ)
    return lambda trig: sum(map(element_sort_key, bindings(trig)), ())


def _sweep_triggers(
    state: _State, dep: TGD, start: int | None, stop: int,
    per: tuple[Var, ...],
) -> list[dict[Var, object]]:
    """The dependency's triggers for one sweep: of its body matches, the
    first in canonical firing order per binding of ``per``, in that
    order.

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

    Only the kept triggers are stored and sorted.  A match whose
    binding was met before is compared with the one kept for it on the
    variables outside ``per``, which order the two as the whole firing
    key does; matches are taken in batches, and a batch of bindings all
    met for the first time is merged with no comparison at all.  The
    whole delta is joined before anything fires, so no paused join
    enumeration ever observes a mutation, and the one sort makes the
    firing order — hence the result, null numbering included — a
    function of the triggers found, not of the order the log or the
    live buckets hold them in.
    """
    univ = dep.universal_variables
    body = dep.body
    sweep = state.live()
    if start is None:
        matches = all_extensions_of(body, sweep)
    else:
        # (atom, the other atoms) per body relation, in body order.
        joins: dict[Relation, list[tuple[Atom, tuple[Atom, ...]]]] = {}
        for i, atom in enumerate(body):
            joins.setdefault(atom.relation, []).append(
                (atom, body[:i] + body[i + 1:])
            )
        relations = state.relations
        matches = chain.from_iterable(
            all_extensions_of(rest, sweep, partial)
            for rel, tup in state.log[start:stop]
            # Skip facts unused here, or renamed by an egd merge.
            if rel in joins and tup in relations[rel]
            for atom, rest in joins[rel]
            if (partial := _unify_atom(atom, tup)) is not None
        )
    batch = list(islice(matches, _SWEEP_BATCH))
    if len(batch) < min(2, _SWEEP_BATCH):
        return batch  # the only match, or none: most small chases' sweeps
    binding: Callable[[dict[Var, object]], object] = (
        itemgetter(*per) if per else (lambda trig: ())
    )
    kept: dict[object, dict[Var, object]] = {}
    while batch:
        fresh = dict(zip(map(binding, batch), batch))
        if len(fresh) == len(batch) and fresh.keys().isdisjoint(kept.keys()):
            if kept:
                kept.update(fresh)
            else:
                kept = fresh
        else:
            rival = _firing_order(tuple(v for v in univ if v not in per))
            for trig in batch:
                key = binding(trig)
                first = kept.setdefault(key, trig)
                if first is not trig and rival(trig) < rival(first):
                    kept[key] = trig
        batch = list(islice(matches, _SWEEP_BATCH))
    # The dict and its bindings go before the sort builds its keys.
    triggers = list(kept.values())
    del kept, fresh
    triggers.sort(key=_firing_order(univ))
    return triggers


# Body matches a sweep takes at once: enough that most sweeps are one
# batch, whose all-new test runs at C speed, and few enough that a sweep
# never holds many of the matches it drops.
_SWEEP_BATCH = 1 << 15


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


# Stop reasons of a run that reached its end: a fixpoint, or a failure.
_TERMINAL = frozenset(
    (StopReason.FIXPOINT, StopReason.EGD_FAILURE, StopReason.DENIAL_VIOLATION)
)
_FAILED = frozenset((StopReason.EGD_FAILURE, StopReason.DENIAL_VIOLATION))


class ChaseRun:
    """One chase run that can be advanced round by round.

    The run holds all of its state: the working :class:`_State`, one
    log cursor per dependency, the fresh-null factory and the
    ``rounds``, ``fired`` and ``nulls_created`` counts.  :meth:`advance`
    runs more rounds of the one chase loop; :func:`chase`, which takes
    the same arguments and documents them, is a run advanced to its
    end.  Advancing one round at a time passes through the same states
    as advancing all at once, so a caller can read :attr:`state`
    between rounds and stop as soon as it has what it needs, then
    resume later: entailment stops at the round where its goal first
    maps (:class:`repro.entailment.implication.FrozenChase`).

    ``stop_reason`` is ``None`` while the run can go on, and one of
    :class:`StopReason`'s values once it has stopped; a stopped run
    does not advance.  A run counts one ``chase.runs`` when it is made,
    however many times it is advanced.

    Each round gives every dependency its turn in sorted order, and
    skips the turns that could find nothing (see the module
    docstring).
    """

    __slots__ = (
        "config", "state", "rounds", "fired", "nulls_created",
        "stop_reason", "_variant", "_max_rounds", "_max_facts",
        "_deps", "_bodies", "_state", "_cursors", "_nulls", "_inventor",
        "_on_fire", "_probe",
    )

    def __init__(
        self,
        instance: Instance,
        dependencies: Iterable[Dependency],
        *,
        variant: str = "restricted",
        max_rounds: int | None = None,
        max_facts: int | None = None,
        inventor: Inventor | None = None,
        on_fire: FiringHook | None = None,
    ) -> None:
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
        self.config: dict[str, object] = {
            "engine": "chase",
            "variant": variant,
            "max_rounds": max_rounds,
            "max_facts": max_facts,
            "dependencies": len(deps),
        }
        if inventor is not None:
            self.config["monitored"] = True
        self._variant = variant
        self._max_rounds = max_rounds
        self._max_facts = max_facts
        self._deps = tuple(deps)
        self._bodies = tuple(
            frozenset(atom.relation for atom in dep.body) for dep in deps
        )
        self._state = _State(instance, _combined_schema(instance, deps))
        self.state = _StateView(self._state)
        # Per-dependency log positions; None until the first turn.
        self._cursors: list[int | None] = [None] * len(deps)
        self._nulls = FreshNulls()
        self._inventor = inventor
        self._on_fire = on_fire
        self.rounds = 0
        self.fired = 0
        self.nulls_created = 0
        self.stop_reason: str | None = None
        self._probe = MetricsProbe()
        if TELEMETRY.enabled:
            TELEMETRY.count("chase.runs")

    @property
    def terminated(self) -> bool:
        """Has the run reached its end: a fixpoint or a failure?"""
        return self.stop_reason in _TERMINAL

    @property
    def failed(self) -> bool:
        """Did an egd clash on two constants, or a denial fire?"""
        return self.stop_reason in _FAILED

    @pauses_collector
    def advance(self, rounds: int | None = None) -> str | None:
        """Run up to ``rounds`` more rounds, or with ``None`` until the
        run stops; return :attr:`stop_reason`.

        A run that has spent its round budget stops in the call that
        ran its last round, so a caller advancing one round at a time
        sees the stop without another call.
        """
        if self.stop_reason is None:
            with span(
                "chase", variant=self._variant, dependencies=len(self._deps)
            ) as sp:
                reason = self._advance(rounds)
                if reason is not None:
                    self.stop_reason = reason
                    if TELEMETRY.enabled and reason in (
                        StopReason.ROUND_BUDGET, StopReason.FACT_BUDGET
                    ):
                        TELEMETRY.count("chase.budget_exhausted")
                    sp.set(stop_reason=reason)
                sp.set(rounds=self.rounds, fired=self.fired)
        return self.stop_reason

    def _advance(self, more: int | None) -> str | None:
        """The chase loop: rounds until ``more`` are done (``None``) or
        the run stops (its reason).  The counts live in locals while
        it runs and go back to the run however it ends."""
        state = self._state
        relations = state.relations
        log = state.log
        deps = self._deps
        bodies = self._bodies
        cursors = self._cursors
        nulls = self._nulls
        inventor = self._inventor
        on_fire = self._on_fire
        oblivious = self._variant == "oblivious"
        max_rounds = self._max_rounds
        max_facts = self._max_facts
        rounds = self.rounds
        until = None if more is None else rounds + more
        fired = self.fired
        nulls_created = self.nulls_created
        try:
            while True:
                if max_rounds is not None and rounds >= max_rounds:
                    return StopReason.ROUND_BUDGET
                if rounds == until:
                    return None
                rounds += 1
                if TELEMETRY.enabled:
                    TELEMETRY.count("chase.rounds")
                with span("chase.round", round=rounds):
                    progressed = False
                    round_triggers = 0
                    for index, dep in enumerate(deps):
                        start = cursors[index]
                        stop = len(log)
                        if (
                            not all(map(relations.__getitem__, bodies[index]))
                            if start is None
                            else bodies[index].isdisjoint(
                                map(itemgetter(0), log[start:stop])
                            )
                        ):
                            # Nothing new in its body relations, or
                            # one of them empty on its first turn.
                            cursors[index] = stop
                            continue
                        if isinstance(dep, DenialConstraint):
                            cursors[index] = stop
                            if find_extension(dep.body, state) is not None:
                                return StopReason.DENIAL_VIOLATION
                            continue
                        if isinstance(dep, EGD):
                            changed, egd_failed = _chase_egd(state, dep)
                            cursors[index] = len(log)
                            progressed = progressed or changed
                            if egd_failed:
                                return StopReason.EGD_FAILURE
                            continue
                        # The Datalog path: adding a full head's image
                        # is its activity check (see the module
                        # docstring).
                        datalog = not oblivious and dep.is_full
                        cursors[index] = stop
                        triggers = _sweep_triggers(
                            state, dep, start, stop,
                            dep.universal_variables if oblivious
                            else dep.frontier,
                        )
                        round_triggers += len(triggers)
                        if TELEMETRY.enabled and triggers:
                            TELEMETRY.count(
                                "chase.triggers_enumerated", len(triggers)
                            )
                        for trigger in triggers:
                            if (
                                not oblivious
                                and not datalog
                                and satisfies_atoms(dep.head, state, trigger)
                            ):
                                # Restricted, existential head: the
                                # head already has an extension.
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
                                return StopReason.MONITOR
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
                                return StopReason.FACT_BUDGET
                    if TELEMETRY.enabled:
                        # Per-round distribution of enumerated tgd
                        # triggers: the semi-naive delta property shows
                        # up directly as a low p50.
                        TELEMETRY.observe(
                            "chase.round_triggers", round_triggers
                        )
                if not progressed:
                    return StopReason.FIXPOINT
        finally:
            self.rounds = rounds
            self.fired = fired
            self.nulls_created = nulls_created

    def result(self) -> ChaseResult:
        """The stopped run as a :class:`ChaseResult`: a snapshot of its
        state, its counts, and the counter delta since it was made."""
        return ChaseResult(
            self._state.snapshot(), self.terminated, self.failed,
            self.rounds, self.fired, self.nulls_created,
            stop_reason=self.stop_reason,  # type: ignore[arg-type]
            metrics=self._probe.delta(), config=self.config,
        )


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
    fires its triggers in one sorted pass (see :func:`_sweep_triggers`):
    in the restricted chase, the first body match per frontier binding,
    in the oblivious one, every distinct match.  The
    ``chase.triggers_enumerated`` counter counts these triggers, the
    ones handed to the firing loop.  A dependency's turn (a sweep, an
    egd's repair pass, a denial check) runs only if a fact of its body
    relations was logged since its last turn, and a first turn only if
    every body relation has a fact.

    Trigger enumeration, egd violation search, denial checks and
    restricted activity checks all run on the compiled join plans of
    :mod:`repro.homomorphisms.plans`.  (The dynamic-order interpreter
    they are proven stream-identical to lives in the test oracle,
    ``tests/oracles/interpreted.py``.)  A restricted chase checks
    activity only for tgds with existential variables: a full tgd's
    trigger fires directly and counts as fired (and reaches
    ``on_fire``) only if it added a fact.  A sweep keeps only the
    first body match of each frontier binding; the later ones are not
    active, since the first found the head's extension or fired and
    made one.  Both give the same ``fired``, facts and ``on_fire``
    calls as probing every trigger (``tests/oracles/restricted.py`` is
    that reference loop).  Trigger
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
    run = ChaseRun(
        instance, dependencies, variant=variant, max_rounds=max_rounds,
        max_facts=max_facts, inventor=inventor, on_fire=on_fire,
    )
    run.advance()
    return run.result()
