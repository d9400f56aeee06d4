"""The explore-everything UCQ saturation: the reference the pruned loop
of :func:`repro.omqa.rewriting.rewrite_ucq` is tested against.

This is the saturation loop the engine ran before it learned to skip
retired disjuncts.  It pops every query it ever kept, including those a
later disjunct subsumed and dropped from the union, and expands them
all.  It shares the piece-rewriting step and the containment matcher
with the engine, so the two loops differ only in which queries they
expand.  By prunability the rewritings of a dropped query are covered
by those of the query that subsumed it, so both loops must return the
same UCQ; the reference generates (and subsumes) at least as many
candidates on the way (``tests/test_omqa_pinned.py``).
"""

from __future__ import annotations

from typing import Sequence

from repro.dependencies.tgd import TGD
from repro.omqa.cq import CQ, UCQ
from repro.omqa.rewriting import (
    RewritingResult,
    _one_step_rewritings,
    subsumes,
)

__all__ = ["reference_rewrite_ucq"]


def reference_rewrite_ucq(
    query: CQ,
    tgds: Sequence[TGD],
    *,
    max_queries: int = 500,
    max_depth: int = 25,
) -> RewritingResult:
    """:func:`~repro.omqa.rewriting.rewrite_ucq`, expanding every query
    it ever kept."""
    for tgd in tgds:
        if not tgd.is_linear:
            raise ValueError(f"rewrite_ucq needs linear tgds, got: {tgd}")
    kept: list[CQ] = [query]
    frontier: list[tuple[CQ, int]] = [(query, 0)]
    generated = 0
    dropped = 0
    complete = True
    while frontier:
        current, depth = frontier.pop()
        if depth >= max_depth:
            complete = False
            continue
        for tgd in tgds:
            for candidate in _one_step_rewritings(current, tgd):
                generated += 1
                if len(kept) >= max_queries:
                    complete = False
                    break
                if any(subsumes(old, candidate) for old in kept):
                    dropped += 1
                    continue
                kept = [q for q in kept if not subsumes(candidate, q)]
                kept.append(candidate)
                frontier.append((candidate, depth + 1))
    return RewritingResult(
        ucq=UCQ(tuple(kept)),
        complete=complete,
        generated=generated,
        subsumed=dropped,
    )
