"""The candidate-search kernel: one engine for Algorithms 1/2, the
Theorem 4.1/5.6 synthesis pipelines, and the characterization batteries.

All of them are the same shape — enumerate a finite fragment, decide
each candidate, collect the accepted ones — over spaces whose size is
the paper's own doubly-exponential counting bound.  :func:`run_search`
is one in-process loop over the candidates in their own order: gate
(budgets), decide, record.  The gate runs before the decision, so a
budget never pays for a decision it then discards.

A decider is any callable from a candidate to a
:class:`~repro.entailment.TriBool`: ``TRUE`` accepts the candidate,
``UNKNOWN`` records it as undecided, and ``FALSE`` rejects it.

Budgets degrade to an ``exhausted`` outcome (callers map it to
``INCONCLUSIVE``) instead of hanging.  The gate runs only once a next
candidate exists, so a budget that lands exactly on the end of the
space reports no stop reason.

Determinism contract: with deterministic candidates and decider, every
field of the outcome (under a *wall-clock* budget, all but the stopping
point) is a pure function of
``(candidates, decide, budget, stop_after_accepts)``.

Telemetry: the kernel opens one ``search`` span per run and counts
``search.candidates`` once, from the run's total; the deciders' own
counters (entailment calls, chase rounds, …) and spans nest under it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from ..entailment.trivalent import TriBool
from ..telemetry import TELEMETRY, span

__all__ = [
    "SearchBudget",
    "SearchOutcome",
    "run_search",
]


@dataclass(frozen=True)
class SearchBudget:
    """Per-run limits.  ``max_candidates`` is deterministic (an exact
    cut in the stable order); ``max_seconds`` necessarily is not — it
    bounds wall-clock time, checked before each candidate is decided,
    so runs stop *promptly after* rather than exactly at the limit.

    ``max_candidates`` must be a non-negative integer and
    ``max_seconds`` a non-negative finite number."""

    max_candidates: int | None = None
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        cap = self.max_candidates
        if cap is not None and not (isinstance(cap, int) and cap >= 0):
            raise ValueError(
                f"max_candidates must be an integer >= 0, got {cap!r}"
            )
        seconds = self.max_seconds
        if seconds is not None and not (
            isinstance(seconds, (int, float))
            and math.isfinite(seconds)
            and seconds >= 0
        ):
            raise ValueError(
                f"max_seconds must be a finite number >= 0, got {seconds!r}"
            )


@dataclass(frozen=True)
class SearchOutcome:
    """What a search run produced.

    ``considered`` counts the candidates decided, in the candidates'
    order; ``accepted`` and ``unknown`` keep that order, and the rest
    were rejected.  ``stop_reason`` is ``None`` when the space was
    drained.
    """

    accepted: tuple
    unknown: tuple
    considered: int
    stop_reason: str | None

    @property
    def exhausted(self) -> bool:
        """Did a budget stop the run before the space was drained?"""
        return self.stop_reason in ("candidate-budget", "wall-clock-budget")


def run_search(
    candidates: Iterable,
    decide: Callable[[object], TriBool],
    *,
    budget: SearchBudget | None = None,
    stop_after_accepts: int | None = None,
) -> SearchOutcome:
    """Run ``decide`` over ``candidates`` and collect the verdicts.

    ``candidates`` is consumed once, in order, and never past the
    candidate that stops the run; pass a fresh generator (e.g.
    ``enumerate_linear_tgds(schema, n, m)``) per run.
    ``stop_after_accepts`` ends the run once that many candidates are
    accepted — the "first counterexample" mode of the property
    batteries.
    """
    budget = budget or SearchBudget()
    started = time.perf_counter()
    accepted: list = []
    unknown: list = []
    considered = 0
    stop_reason: str | None = None
    with span("search") as sp:
        for candidate in candidates:
            if (
                budget.max_candidates is not None
                and considered >= budget.max_candidates
            ):
                stop_reason = "candidate-budget"
                break
            if (
                budget.max_seconds is not None
                and time.perf_counter() - started >= budget.max_seconds
            ):
                stop_reason = "wall-clock-budget"
                break
            verdict = decide(candidate)
            considered += 1
            if verdict is TriBool.TRUE:
                accepted.append(candidate)
            elif verdict is TriBool.UNKNOWN:
                unknown.append(candidate)
            if (
                stop_after_accepts is not None
                and len(accepted) >= stop_after_accepts
            ):
                stop_reason = "accept-target"
                break
        if considered:
            TELEMETRY.count("search.candidates", considered)
        sp.set(
            considered=considered,
            accepted=len(accepted),
            unknown=len(unknown),
            stop_reason=stop_reason or "drained",
        )
    return SearchOutcome(
        accepted=tuple(accepted),
        unknown=tuple(unknown),
        considered=considered,
        stop_reason=stop_reason,
    )
