"""The textbook restricted chase: the reference for the engine's two
activity shortcuts.

:func:`chase` in :mod:`repro.chase.engine` fires a full tgd's trigger
without an activity check and counts it as fired only if it added a
fact (the Datalog path), and probes an existential tgd only once per
frontier binding per sweep.  This loop does what the definition says
instead: every round, every tgd's triggers in canonical order (by the
bindings of the body variables, the engine's order), each fired only
after an activity check finds that its head has no extension in the
current facts.  Matching
runs on the interpreted matcher of :mod:`tests.oracles.interpreted`
over plain relation sets, so nothing of the engine's working state is
involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.dependencies.tgd import TGD
from repro.instances.instance import Instance
from repro.lang.atoms import Fact
from repro.lang.schema import Relation
from repro.lang.terms import FreshNulls, Var, element_sort_key
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
    its rounds (the last one finds nothing to fire), and every firing
    as ``(tgd, trigger, facts it added)``."""

    facts: dict[str, set[tuple[object, ...]]]
    rounds: int
    terminated: bool
    firings: list[Firing] = field(default_factory=list)

    @property
    def fired(self) -> int:
        return len(self.firings)


def activity_checked_chase(
    instance: Instance, tgds: Iterable[TGD], *, max_rounds: int = 50
) -> ReferenceRun:
    """Chase ``instance`` with ``tgds`` by the restricted chase's
    definition: a trigger fires only if its head has no extension."""
    deps = sorted(tgds, key=str)
    target = _Facts(instance)
    nulls = FreshNulls()
    firings: list[Firing] = []
    rounds = 0
    terminated = False
    while rounds < max_rounds:
        rounds += 1
        progressed = False
        for tgd in deps:
            univ = tgd.universal_variables
            triggers = sorted(
                all_extensions_of(tgd.body, target),
                key=lambda trig: tuple(element_sort_key(trig[v]) for v in univ),
            )
            for trigger in triggers:
                if satisfies_atoms(tgd.head, target, trigger):
                    continue
                assignment = dict(trigger)
                for var in tgd.existential_variables:
                    assignment[var] = nulls()
                added: list[Fact] = []
                for atom in tgd.head:
                    tup = tuple(assignment[arg] for arg in atom.args)
                    tuples = target.tuples(atom.relation)
                    if tup not in tuples:
                        tuples.add(tup)
                        added.append(Fact(atom.relation, tup))
                firings.append((tgd, trigger, tuple(added)))
                progressed = True
        if not progressed:
            terminated = True
            break
    facts = {
        rel.name: tuples
        for rel, tuples in target.relations.items()
        if tuples
    }
    return ReferenceRun(facts, rounds, terminated, firings)
