"""Entailment-backed deep lint: semantic findings the syntactic passes
cannot see.

Everything here is opt-in (``repro lint --deep`` /
``run_lint(..., deep=True)``) because each finding consults an engine —
the monitored critical-instance chase or the memoized entailment layer
at an escalated budget.  Codes:

``D001``
    A *semantically* dead predicate: syntactically reachable from the
    extensional schema (so ``H002`` stays silent), yet no fact for it
    is ever derived by the Skolem chase of the extensional critical
    instance — e.g. a rule whose body demands a diagonal ``R(x, x)``
    that no invention can produce.  Only emitted when that chase
    reaches a fixpoint (tgd-only sets, within the safety budget), so
    the verdict is exact, never a guess.
``D002``
    A rule subsumed by a *single* other rule, found only at an
    escalated chase budget (``DEEP_BUDGET_FACTOR ×`` the default).
    ``H004`` reports the cheap verdicts; ``D002`` re-asks exactly the
    pairs the default budget left ``UNKNOWN``.
``D003``
    A rule entailed by the rest of the set at the escalated budget
    (the expensive analogue of ``H005``).
``L001``
    Rewritability hint (info): the rule dependency graph is
    nonrecursive, so the set is loop-restricted in the sense of
    Asuncion et al. — certain-answer queries are FO-rewritable.  The
    same check feeds the ``rewrite()`` preflight hint.

The wall-clock cost of a deep pass is observed into the
``analysis.deep_ms`` histogram.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

from ..chase.engine import ChaseMonitorStop, StopReason, chase
from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..entailment.bcq import DEFAULT_CHASE_ROUNDS
from ..instances.critical import critical_instance_over
from ..lang.schema import Schema
from ..lang.terms import Const, Var
from ..telemetry import TELEMETRY
from .depgraph import depgraph_for
from .diagnostics import Diagnostic, Severity
from .semantic import (
    MFA_MAX_FACTS,
    _telemetry_paused,
    skolem_functions,
    _mentions,
)

__all__ = [
    "DEEP_BUDGET_FACTOR",
    "deep_diagnostics",
    "loop_restriction_diagnostics",
    "semantic_reachability_diagnostics",
    "escalated_subsumption_diagnostics",
]

DEEP_BUDGET_FACTOR = 4


def _is_loop_restricted(dependencies: Sequence[object]) -> bool:
    """The decidable gate this repo implements: a nonrecursive
    dependency graph (no predicate transitively depends on itself) is
    loop-restricted; recursion in general is not FO-rewritable
    (transitive closure being the classic witness)."""
    deps = list(dependencies)
    if not any(isinstance(dep, TGD) for dep in deps):
        return False
    return depgraph_for(deps).is_nonrecursive


def loop_restriction_diagnostics(
    dependencies: Sequence[object],
) -> tuple[Diagnostic, ...]:
    """``L001`` (info) when the set is loop-restricted, hence
    FO-rewritable."""
    if not _is_loop_restricted(dependencies):
        return ()
    return (
        Diagnostic(
            code="L001",
            severity=Severity.INFO,
            message=(
                "loop-restricted rule set (nonrecursive dependency "
                "graph): certain-answer queries are FO-rewritable"
            ),
            witness="nonrecursive",
            tags=("rewritability", "loop-restricted"),
        ),
    )


def semantic_reachability_diagnostics(
    dependencies: Sequence[object],
) -> tuple[Diagnostic, ...]:
    """``D001`` per derived predicate that stays empty in the Skolem
    chase of the extensional critical instance.

    Strictly stronger than ``H002``'s AND-closure: the chase evaluates
    the actual joins, so a predicate fed only by un-satisfiable bodies
    (diagonals over invented terms, joins of disjoint Skolem ranges) is
    caught here.  Skipped for sets with egds (the Skolem chase does not
    model merges) and when the chase cannot reach a fixpoint within the
    safety budget (no guess, no finding).
    """
    deps = list(dependencies)
    if any(isinstance(dep, EGD) for dep in deps):
        return ()
    tgds = [dep for dep in deps if isinstance(dep, TGD)]
    if not tgds:
        return ()
    graph = depgraph_for(deps)
    if not graph.extensional:
        return ()
    schema = Schema.combined(tgd.schema for tgd in tgds)
    extensional_schema = Schema(
        rel for rel in schema if rel.name in graph.extensional
    )
    if not len(extensional_schema):
        return ()
    functions = skolem_functions(tgds)

    def inventor(
        tgd: TGD, var: Var, assignment: Mapping[Var, object]
    ) -> object:
        fn = functions[(tgd, var.name)]
        args = tuple(assignment[v] for v in tgd.frontier)
        for arg in args:
            if _mentions(arg, fn):
                raise ChaseMonitorStop(fn.name)
        return (fn, *args)

    start = critical_instance_over(extensional_schema, (Const("c0"),))
    with _telemetry_paused():
        result = chase(
            start,
            tgds,
            variant="oblivious",
            max_facts=MFA_MAX_FACTS,
            inventor=inventor,
        )
    if result.stop_reason != StopReason.FIXPOINT:
        return ()
    populated = {
        rel.name
        for rel in result.instance.schema
        if result.instance.tuples(rel.name)
    }
    diagnostics = []
    for name in graph.predicates:
        if name in graph.extensional:
            continue
        if name not in graph.reachable:
            continue  # already H002's finding
        if name not in populated:
            diagnostics.append(
                Diagnostic(
                    code="D001",
                    severity=Severity.WARNING,
                    message=(
                        f"predicate {name} is semantically dead: the "
                        f"critical-instance chase derives no fact for "
                        f"it"
                    ),
                    witness=name,
                    tags=("deep", "dead-predicate"),
                )
            )
    return tuple(diagnostics)


def escalated_subsumption_diagnostics(
    dependencies: Sequence[object],
) -> tuple[Diagnostic, ...]:
    """``D002``/``D003``: subsumption and redundancy verdicts that only
    materialize at ``DEEP_BUDGET_FACTOR ×`` the default chase budget.

    Exactly the pairs (and rests) the shallow pass left ``UNKNOWN`` are
    re-asked — a rule the default budget already proved subsumed stays
    an ``H004``/``H005`` finding, never a duplicate here.
    """
    from ..entailment.implication import entails
    from ..entailment.trivalent import TriBool

    deps = list(dependencies)
    budget = DEEP_BUDGET_FACTOR * DEFAULT_CHASE_ROUNDS
    candidates = [
        (i, dep)
        for i, dep in enumerate(deps)
        if isinstance(dep, (TGD, EGD))
    ]
    diagnostics = []
    for i, dep in candidates:
        shallow_unknowns: list[int] = []
        subsumed_shallow = False
        for j, other in candidates:
            if j == i:
                continue
            verdict = entails([other], dep)
            if verdict is TriBool.TRUE:
                subsumed_shallow = True  # H004's finding
                break
            if verdict is TriBool.UNKNOWN:
                shallow_unknowns.append(j)
        if subsumed_shallow:
            continue
        deep_subsumer: int | None = None
        for j in shallow_unknowns:
            if entails([deps[j]], dep, max_rounds=budget) is TriBool.TRUE:
                deep_subsumer = j
                break
        if deep_subsumer is not None:
            diagnostics.append(
                Diagnostic(
                    code="D002",
                    severity=Severity.WARNING,
                    message=(
                        f"subsumed by rule {deep_subsumer} (escalated "
                        f"budget {budget})"
                    ),
                    rule=i,
                    witness=f"rule {deep_subsumer}",
                    tags=("deep", "subsumed-rule"),
                )
            )
            continue
        rest = [other for j, other in candidates if j != i]
        if not rest:
            continue
        if entails(rest, dep) is not TriBool.UNKNOWN:
            continue  # TRUE is H005's finding; FALSE is settled
        if entails(rest, dep, max_rounds=budget) is TriBool.TRUE:
            diagnostics.append(
                Diagnostic(
                    code="D003",
                    severity=Severity.WARNING,
                    message=(
                        f"redundant: entailed by the rest of the set "
                        f"(escalated budget {budget})"
                    ),
                    rule=i,
                    tags=("deep", "redundant-rule"),
                )
            )
    return tuple(diagnostics)


def deep_diagnostics(
    dependencies: Sequence[object], *, entailment: bool = True
) -> tuple[Diagnostic, ...]:
    """All deep findings of a set; ``entailment=False`` skips the
    escalated subsumption/redundancy passes (the chase-heavy ones)."""
    deps = list(dependencies)
    started = time.perf_counter()
    diagnostics: list[Diagnostic] = []
    diagnostics.extend(semantic_reachability_diagnostics(deps))
    if entailment:
        diagnostics.extend(escalated_subsumption_diagnostics(deps))
    diagnostics.extend(loop_restriction_diagnostics(deps))
    if TELEMETRY.enabled:
        TELEMETRY.observe(
            "analysis.deep_ms",
            (time.perf_counter() - started) * 1000.0,
        )
    return tuple(diagnostics)
