"""The textbook restricted chase: the reference for the engine's
shortcuts.

:func:`chase` in :mod:`repro.chase.engine` fires a full tgd's trigger
without an activity check and counts it as fired only if it added a
fact (the Datalog path), keeps only the first trigger per frontier
binding of a sweep, and skips a dependency's turn (a sweep, an egd's
repair pass, a denial check) while no fact of its body relations is
new.  This loop does what the definition says
instead: every round, every tgd's triggers in canonical order (by the
bindings of the body variables, the engine's order), each fired only
after an activity check finds that its head has no extension in the
current facts, and every egd repaired one violation at a time, each
merge keeping a constant, or else the smaller null.  Matching
runs on the interpreted matcher of :mod:`tests.oracles.interpreted`
over plain relation sets, so nothing of the engine's working state is
involved.

A run that fails on an egd stops where the one-at-a-time repair met
the clash, which need not be the state the engine's repair pass
started from, so only the failure itself and what came before it are
comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

from repro.chase import StopReason
from repro.dependencies.egd import EGD
from repro.dependencies.tgd import TGD
from repro.instances.instance import Instance
from repro.lang.atoms import Fact
from repro.lang.schema import Relation
from repro.lang.terms import FreshNulls, Null, Var, element_sort_key
from tests.oracles.interpreted import all_extensions_of, satisfies_atoms

__all__ = ["ReferenceRun", "activity_checked_chase"]

Firing = tuple[TGD, dict[Var, object], tuple[Fact, ...]]


class _Facts:
    """A mutable probe target over plain sets, indexed by scanning."""

    def __init__(self, instance: Instance) -> None:
        self.relations: dict[Relation, set[tuple[object, ...]]] = {
            rel: set(instance.tuples(rel)) for rel in instance.schema
        }

    def tuples(self, relation: Relation) -> set[tuple[object, ...]]:
        return self.relations.setdefault(relation, set())

    def tuples_with(
        self, relation: Relation, position: int, element: object
    ) -> list[tuple[object, ...]]:
        return [
            tup for tup in self.tuples(relation) if tup[position] == element
        ]


@dataclass
class ReferenceRun:
    """What the reference loop did: the final facts per relation name,
    its rounds (the last one finds nothing to fire), every firing as
    ``(tgd, trigger, facts it added)`` and why it stopped (a
    :class:`~repro.chase.StopReason` value)."""

    facts: dict[str, set[tuple[object, ...]]]
    rounds: int
    terminated: bool
    firings: list[Firing] = field(default_factory=list)
    stop_reason: str = StopReason.FIXPOINT

    @property
    def fired(self) -> int:
        return len(self.firings)


def _repair(target: _Facts, egd: EGD) -> tuple[bool, bool]:
    """Repair ``egd`` one violation at a time; returns (changed, failed)."""
    changed = False
    while True:
        for match in all_extensions_of(egd.body, target):
            left, right = match[egd.lhs], match[egd.rhs]
            if left != right:
                break
        else:
            return changed, False
        if not isinstance(left, Null) and not isinstance(right, Null):
            return changed, True
        if isinstance(left, Null) and (
            not isinstance(right, Null)
            or element_sort_key(right) < element_sort_key(left)
        ):
            left, right = right, left
        for rel, tuples in target.relations.items():
            target.relations[rel] = {
                tuple(left if elem == right else elem for elem in tup)
                for tup in tuples
            }
        changed = True


def activity_checked_chase(
    instance: Instance,
    dependencies: Iterable[Union[TGD, EGD]],
    *,
    max_rounds: int = 50,
    max_facts: int | None = None,
) -> ReferenceRun:
    """Chase ``instance`` with tgds and egds by the restricted chase's
    definition: a trigger fires only if its head has no extension.
    With ``max_facts``, the run stops after the firing that takes the
    facts past it."""
    deps = sorted(dependencies, key=str)
    target = _Facts(instance)
    nulls = FreshNulls()
    firings: list[Firing] = []
    rounds = 0

    def run() -> str:
        nonlocal rounds
        while rounds < max_rounds:
            rounds += 1
            progressed = False
            for dep in deps:
                if isinstance(dep, EGD):
                    changed, failed = _repair(target, dep)
                    if failed:
                        return StopReason.EGD_FAILURE
                    progressed = progressed or changed
                    continue
                univ = dep.universal_variables
                triggers = sorted(
                    all_extensions_of(dep.body, target),
                    key=lambda trig: tuple(
                        element_sort_key(trig[v]) for v in univ
                    ),
                )
                for trigger in triggers:
                    if satisfies_atoms(dep.head, target, trigger):
                        continue
                    assignment = dict(trigger)
                    for var in dep.existential_variables:
                        assignment[var] = nulls()
                    added: list[Fact] = []
                    for atom in dep.head:
                        tup = tuple(assignment[arg] for arg in atom.args)
                        tuples = target.tuples(atom.relation)
                        if tup not in tuples:
                            tuples.add(tup)
                            added.append(Fact(atom.relation, tup))
                    firings.append((dep, trigger, tuple(added)))
                    progressed = True
                    if max_facts is not None and sum(
                        map(len, target.relations.values())
                    ) > max_facts:
                        return StopReason.FACT_BUDGET
            if not progressed:
                return StopReason.FIXPOINT
        return StopReason.ROUND_BUDGET

    stop = run()
    facts = {
        rel.name: tuples
        for rel, tuples in target.relations.items()
        if tuples
    }
    return ReferenceRun(
        facts, rounds, stop == StopReason.FIXPOINT, firings, stop
    )
