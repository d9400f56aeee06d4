"""The one stateful candidate decider.

A decider is any callable from a candidate to a
:class:`~repro.entailment.TriBool` — the three outcomes every search
in this codebase reduces to: a candidate tgd is entailed / not entailed
/ undecided within the chase budget (Algorithms 1 and 2), a candidate
dependency is valid / invalid in an ontology (Theorem 4.1 and 5.6
synthesis), an instance is / is not a counterexample to a property
(the characterization batteries).  The synthesis pipelines and the
property batteries pass a lambda or a closure;
:class:`EntailmentDecider` is the one decider that keeps state between
candidates.
"""

from __future__ import annotations

from typing import Sequence

from ..entailment.implication import FrozenChase, Premises, prepare_premises

# Candidate decisions are entailment questions: bound here as
# ``entails``, the name the benchmark's layer tracer (bench/layers.py)
# times as the entailment layer.
from ..entailment.implication import entails_sharing as entails
from ..entailment.trivalent import TriBool

__all__ = ["EntailmentDecider"]


class EntailmentDecider:
    """Decide whether ``premises`` entail a candidate (chase-based,
    three-valued — the Algorithm 1/2 candidate test).

    The premises are prepared once, at construction
    (:class:`~repro.entailment.implication.Premises`).

    A candidate's verdict depends on its body only through the chase of
    that body frozen, and every tgd enumerator runs one bodies × heads
    loop that emits all heads of a body in one run
    (:mod:`repro.dependencies.enumeration`), so the decider keeps the
    last chase and reads each following candidate with an equal body
    off it
    (:func:`~repro.entailment.implication.entails_sharing`).  Each
    verdict runs the chase only until that candidate's answer shows,
    and the next candidate resumes it from there.  No answer is
    memoized beyond that one chase.
    """

    def __init__(
        self,
        premises: Sequence[object] | Premises,
        max_rounds: int | None = None,
    ) -> None:
        self.premises = prepare_premises(premises)
        self.max_rounds = max_rounds
        self._kept: FrozenChase | None = None

    def __call__(self, candidate: object) -> TriBool:
        verdict, self._kept = entails(
            self.premises, candidate, self._kept, max_rounds=self.max_rounds
        )
        return verdict
