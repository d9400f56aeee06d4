"""Pluggable candidate deciders.

A decider classifies one candidate as :data:`Verdict.ACCEPT`,
:data:`Verdict.REJECT`, or :data:`Verdict.UNKNOWN` — the three outcomes
every search in this codebase reduces to: a candidate tgd is entailed /
not entailed / undecided within the chase budget (Algorithms 1 and 2), a
candidate dependency is valid / invalid in an ontology (Theorem 4.1 and
5.6 synthesis), an instance is / is not a counterexample to a property
(the characterization batteries).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence, runtime_checkable

from ..entailment.implication import FrozenChase, Premises, prepare_premises

# Candidate decisions are entailment questions: bound here as
# ``entails``, the name the benchmark's layer tracer (bench/layers.py)
# times as the entailment layer.
from ..entailment.implication import entails_sharing as entails
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

    The premises are prepared once, at construction
    (:class:`~repro.entailment.implication.Premises`).

    A candidate's verdict depends on its body only through the chase of
    that body frozen, and the enumerators emit every head of a body in
    one run, so the decider keeps the last chase and reads each
    following candidate with an equal body off it
    (:func:`~repro.entailment.implication.entails_sharing`).  Verdicts
    are not memoized beyond that one chase.
    """

    premises: Sequence[object] | Premises
    max_rounds: int | None = None
    _kept: FrozenChase | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        premises = prepare_premises(self.premises)
        object.__setattr__(self, "premises", premises)

    def decide(self, candidate: object) -> Verdict:
        verdict, kept = entails(
            self.premises, candidate, self._kept, max_rounds=self.max_rounds
        )
        object.__setattr__(self, "_kept", kept)
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
    """Adapt a boolean predicate."""

    predicate: Callable[[object], bool]

    def decide(self, candidate: object) -> Verdict:
        return Verdict.ACCEPT if self.predicate(candidate) else Verdict.REJECT
