"""Pluggable candidate deciders.

A decider classifies one candidate as :data:`Verdict.ACCEPT`,
:data:`Verdict.REJECT`, or :data:`Verdict.UNKNOWN` — the three outcomes
every search in this codebase reduces to: a candidate tgd is entailed /
not entailed / undecided within the chase budget (Algorithms 1 and 2), a
candidate dependency is valid / invalid in an ontology (Theorem 4.1 and
5.6 synthesis), an instance is / is not a counterexample to a property
(the characterization batteries).

Deciders used with ``jobs > 1`` cross a process boundary, so they must
be picklable: frozen dataclasses over plain data (tgds, instances,
ontologies) qualify; closures and lambdas do not — wrap a module-level
function in :class:`PredicateDecider` instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

from ..entailment.implication import entails
from ..entailment.trivalent import TriBool
from ..instances.instance import Instance

__all__ = [
    "Verdict",
    "Decider",
    "EntailmentDecider",
    "ValidityDecider",
    "PredicateDecider",
]


class Verdict(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    UNKNOWN = "unknown"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@runtime_checkable
class Decider(Protocol):
    """Anything with a deterministic ``decide(candidate) -> Verdict``."""

    def decide(self, candidate: object) -> Verdict: ...


@dataclass(frozen=True)
class EntailmentDecider:
    """Accept candidates entailed by ``premises`` (chase-based, three-
    valued — the Algorithm 1/2 candidate test).

    Every decision is one freeze-and-chase; verdicts are not memoized,
    so which worker decides a candidate never changes which chases
    run, and the operation-count telemetry (not just the outcome) is
    invariant in ``jobs`` — the jobs-parity tests rely on this.

    ``order`` selects the join-ordering strategy of the chase's
    compiled plans for every decision (``None`` → the chase default);
    the decider stays a frozen picklable dataclass, so the knob
    survives the worker fan-out unchanged.
    """

    premises: tuple
    max_rounds: int | None = None
    order: str | None = None

    def decide(self, candidate: object) -> Verdict:
        verdict = entails(
            self.premises, candidate, max_rounds=self.max_rounds,
            order=self.order,
        )
        if verdict is TriBool.TRUE:
            return Verdict.ACCEPT
        if verdict is TriBool.FALSE:
            return Verdict.REJECT
        return Verdict.UNKNOWN


@dataclass(frozen=True)
class ValidityDecider:
    """Accept dependencies satisfied by every listed member — the
    "valid in the ontology" test of the synthesis pipelines, taken over
    a materialized bounded member space."""

    members: tuple[Instance, ...]

    def decide(self, candidate: object) -> Verdict:
        satisfied = all(
            candidate.satisfied_by(member) for member in self.members
        )
        return Verdict.ACCEPT if satisfied else Verdict.REJECT


@dataclass(frozen=True)
class PredicateDecider:
    """Adapt a boolean predicate; ``predicate`` must be a module-level
    callable for the parallel path."""

    predicate: Callable[[object], bool]

    def decide(self, candidate: object) -> Verdict:
        return Verdict.ACCEPT if self.predicate(candidate) else Verdict.REJECT
