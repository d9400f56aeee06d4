"""Entailment that chases to the end: the reference for stopping at the
goal.

:func:`repro.entailment.entails` advances a frozen body's chase one
round at a time and answers TRUE at the first round where the
conclusion maps; :class:`repro.search.EntailmentDecider` resumes one
body's chase for the next conclusion.  This is the freeze-and-chase
reduction without either: every question chases its frozen body with
:func:`repro.chase.chase` to a fixpoint, a failure or the round budget,
and only then reads the conclusion off the final instance.  The
verdicts must be equal, since a conclusion that maps in some round maps
in every later one (``tests/test_stop_at_goal.py``).

:func:`reference_minimize` is :func:`repro.rewriting.minimize_tgds` as
a re-sweep of the whole set until a pass removes nothing.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.certificates import default_budget
from repro.chase import chase
from repro.dependencies.tgd import TGD
from repro.entailment import TriBool
from repro.entailment.bcq import DEFAULT_CHASE_ROUNDS
from repro.entailment.implication import (
    Premises,
    _conclusion_holds,
    _freeze_body,
    _representatives,
    prepare_premises,
)
from repro.lang.atoms import atoms_variables

__all__ = ["reference_entails", "reference_minimize"]


def reference_entails(
    dependencies, conclusion, *, max_rounds: int | None = None
) -> TriBool:
    """``Σ ⊨ σ`` read off the chase of ``σ``'s frozen body run to its
    end (the budget of :func:`repro.entailment.entails`)."""
    premises = prepare_premises(dependencies)
    body = tuple(conclusion.body)
    body_vars = tuple(atoms_variables(body))
    database, track = _freeze_body(
        body, body_vars, premises, conclusion.schema
    )
    budget = max_rounds
    if budget is None:
        budget = default_budget(premises, DEFAULT_CHASE_ROUNDS)
    result = chase(database, premises.dependencies, max_rounds=budget)
    if result.failed:
        return TriBool.TRUE
    reps = _representatives(result.instance, track, body_vars)
    if _conclusion_holds(conclusion, result.instance, reps):
        return TriBool.TRUE
    return TriBool.FALSE if result.terminated else TriBool.UNKNOWN


def reference_minimize(
    tgds: Sequence[TGD], *, max_rounds: int | None = None
) -> tuple[TGD, ...]:
    """Drop, last to first, every member the others entail (TRUE), and
    sweep the whole set again until a sweep drops nothing."""
    current = Premises(tgds)
    changed = True
    while changed:
        changed = False
        for index in range(len(current) - 1, -1, -1):
            rest = current.without(index)
            if not rest:
                break
            if reference_entails(
                rest, current[index], max_rounds=max_rounds
            ).is_true:
                current = rest
                changed = True
    return current.dependencies
