"""The candidate-search kernel: one engine for Algorithms 1/2, the
Theorem 4.1/5.6 synthesis pipelines, and the characterization batteries.

All of them are the same shape — enumerate a finite fragment, decide
each candidate, collect the accepted ones — over spaces whose size is
the paper's own doubly-exponential counting bound.  :func:`run_search`
is one in-process loop over the candidates in their own order: gate
(budgets), decide, record.  The gate runs before the decision, so a
budget never pays for a decision it then discards.

Budgets degrade to an ``exhausted`` outcome (callers map it to
``INCONCLUSIVE``) instead of hanging.  The gate runs only once a next
candidate exists, so a budget that lands exactly on the end of the
space reports ``complete``.

Determinism contract: with deterministic candidates and decider, every
field of the outcome except ``elapsed_seconds`` (and, under a
*wall-clock* budget, the stopping point) is a pure function of
``(candidates, decider, budget, stop_after_accepts)``.

Telemetry: the kernel counts ``search.candidates`` and opens one
``search`` span per run; the deciders' own counters (entailment calls,
chase rounds, …) and spans nest under it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from ..telemetry import TELEMETRY, span
from .deciders import Decider, Verdict

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

    ``considered = len(accepted) + len(unknown) + rejected`` counts the
    candidates decided, in the candidates' order.
    """

    accepted: tuple
    unknown: tuple
    rejected: int
    considered: int
    stop_reason: str | None
    elapsed_seconds: float

    @property
    def exhausted(self) -> bool:
        """Did a budget stop the run before the space was drained?"""
        return self.stop_reason in ("candidate-budget", "wall-clock-budget")

    @property
    def complete(self) -> bool:
        """Was the whole candidate space decided?"""
        return self.stop_reason is None


def run_search(
    candidates: Iterable,
    decider: Decider,
    *,
    budget: SearchBudget | None = None,
    stop_after_accepts: int | None = None,
    observe: Callable[[object, Verdict], None] | None = None,
) -> SearchOutcome:
    """Drive ``decider`` over ``candidates`` and collect the verdicts.

    ``candidates`` is consumed once, in order, and never past the
    candidate that stops the run; pass a fresh generator (e.g.
    ``enumerate_linear_tgds(schema, n, m)``) per run.
    ``stop_after_accepts`` ends the run once that many candidates are
    accepted — the "first counterexample" mode of the property
    batteries.  ``observe(candidate, verdict)`` fires for every decided
    candidate, in order.
    """
    budget = budget or SearchBudget()
    started = time.perf_counter()
    accepted: list = []
    unknown: list = []
    rejected = considered = 0
    stop_reason: str | None = None
    with span("search", decider=type(decider).__name__) as sp:
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
            verdict = decider.decide(candidate)
            considered += 1
            if TELEMETRY.enabled:
                TELEMETRY.count("search.candidates")
            if verdict is Verdict.ACCEPT:
                accepted.append(candidate)
            elif verdict is Verdict.UNKNOWN:
                unknown.append(candidate)
            else:
                rejected += 1
            if observe is not None:
                observe(candidate, verdict)
            if (
                stop_after_accepts is not None
                and len(accepted) >= stop_after_accepts
            ):
                stop_reason = "accept-target"
                break
        outcome = SearchOutcome(
            accepted=tuple(accepted),
            unknown=tuple(unknown),
            rejected=rejected,
            considered=considered,
            stop_reason=stop_reason,
            elapsed_seconds=time.perf_counter() - started,
        )
        sp.set(
            considered=outcome.considered,
            accepted=len(outcome.accepted),
            unknown=len(outcome.unknown),
            stop_reason=stop_reason or "drained",
        )
    return outcome
