"""Rule-set hygiene: unused variables, dead rules, unreachable
predicates, subsumed and redundant rules.

These findings never change the *semantics* of a set — a dead rule is
logically harmless — but they almost always indicate a typo (a
misspelled predicate orphans every rule reading it) or copy-paste
residue (a rule entailed by its neighbours).  Codes:

``H001``
    An unused universal variable in a multi-atom body: it occurs
    exactly once and is never exported, so its atom is joined in as a
    cross product — usually a misspelled join variable.  Single-atom
    bodies are exempt (projection is idiomatic there).
``H002``
    An unreachable predicate: assuming databases range over the
    *extensional* schema (predicates not derived by any tgd head), the
    predicate can never hold a fact.  Skipped when the set has no
    extensional predicate at all (then nothing anchors reachability).
``H003``
    A dead rule: its body reads an unreachable predicate, so no chase
    over an extensional database ever fires it.
``H004``
    A subsumed rule: some *single* other rule entails it.  The witness
    names the subsuming rule; two identical rules subsume each other
    and are both reported.
``H005``
    A redundant rule: the rest of the set entails it (but no single
    rule does — those are reported as ``H004`` instead).

Subsumption and redundancy go through :func:`repro.entailment.entails`
(one chase per question, no verdict memo), which applies its own
certificate-gated budgets, so hygiene never hangs on a non-terminating
set; only a definitive ``TRUE`` verdict produces a diagnostic.  Under
``repro lint --deep`` the same pass escalates the questions the default
budget left ``UNKNOWN`` (``D002``/``D003``, see
:mod:`repro.analysis.deep`).
"""

from __future__ import annotations

from typing import Sequence

from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..lang.atoms import Atom
from .diagnostics import Diagnostic, Severity

__all__ = [
    "unused_variable_diagnostics",
    "reachability_diagnostics",
    "subsumption_diagnostics",
]


def _body_of(dep: object) -> tuple[Atom, ...]:
    body = getattr(dep, "body", ())
    return tuple(body)


def unused_variable_diagnostics(
    index: int, dep: object
) -> tuple[Diagnostic, ...]:
    """``H001`` per universal variable used exactly once and never
    exported (tgd head / egd equality), in multi-atom bodies."""
    body = _body_of(dep)
    if len(body) < 2:
        return ()
    occurrences: dict[str, int] = {}
    order: list[str] = []
    for atom in body:
        for var in atom.variables():
            if var.name not in occurrences:
                order.append(var.name)
            occurrences[var.name] = occurrences.get(var.name, 0) + 1
    if isinstance(dep, TGD):
        exported = {var.name for var in dep.frontier}
    elif isinstance(dep, EGD):
        exported = {dep.lhs.name, dep.rhs.name}
    else:
        # A denial constraint only matches a pattern; single-occurrence
        # variables are deliberate wildcards there.
        return ()
    diagnostics = []
    for name in order:
        if occurrences[name] == 1 and name not in exported:
            atom = next(
                a
                for a in body
                if any(v.name == name for v in a.variables())
            )
            diagnostics.append(
                Diagnostic(
                    code="H001",
                    severity=Severity.WARNING,
                    message=(
                        f"variable {name} occurs once and constrains "
                        f"nothing (possible typo)"
                    ),
                    rule=index,
                    witness=f"{name} in {atom}".replace("?", ""),
                    tags=("hygiene", "unused-variable"),
                )
            )
    return tuple(diagnostics)


def reachability_diagnostics(
    dependencies: Sequence[object],
) -> tuple[Diagnostic, ...]:
    """``H002`` per unreachable predicate, ``H003`` per dead rule.

    Both read the shared (memoized) dependency graph of
    :mod:`repro.analysis.depgraph` — predicate order, the extensional
    schema, and the AND-closure reachability used to live here as an
    ad-hoc rebuild."""
    from .depgraph import depgraph_for

    deps = list(dependencies)
    graph = depgraph_for(deps)
    order, reachable = graph.predicates, graph.reachable
    if not graph.extensional:
        return ()
    diagnostics = [
        Diagnostic(
            code="H002",
            severity=Severity.WARNING,
            message=(
                f"predicate {name} is never derivable from the "
                f"extensional schema"
            ),
            witness=name,
            tags=("hygiene", "unreachable-predicate"),
        )
        for name in order
        if name not in reachable
    ]
    for index, dep in enumerate(deps):
        blocker = next(
            (
                atom.relation.name
                for atom in _body_of(dep)
                if atom.relation.name not in reachable
            ),
            None,
        )
        if blocker is not None:
            diagnostics.append(
                Diagnostic(
                    code="H003",
                    severity=Severity.WARNING,
                    message="dead rule: its body can never be satisfied",
                    rule=index,
                    witness=blocker,
                    tags=("hygiene", "dead-rule"),
                )
            )
    return tuple(diagnostics)


def subsumption_diagnostics(
    dependencies: Sequence[object],
) -> tuple[Diagnostic, ...]:
    """``H004`` (pairwise subsumption) and ``H005`` (set redundancy)."""
    return subsumption_pass(dependencies, None)


def subsumption_pass(
    dependencies: Sequence[object], escalated_budget: int | None
) -> tuple[Diagnostic, ...]:
    """Every subsumption question of a set, each asked once.

    Per rule, at the default budget: the first single other rule that
    entails it is ``H004``; otherwise the rest of the set entailing it
    is ``H005``.  With an ``escalated_budget`` (``run_lint(deep=True)``)
    the questions the default budget left ``UNKNOWN`` are asked again
    at that budget, for a rule with no ``H004``: the first single rule
    then proven to entail it is ``D002``; failing that, the rest of the
    set then proven to entail it is ``D003``.
    """
    from ..entailment.implication import entails
    from ..entailment.trivalent import TriBool

    deps = list(dependencies)
    candidates = [
        (i, dep)
        for i, dep in enumerate(deps)
        if isinstance(dep, (TGD, EGD))
    ]
    diagnostics = []
    for i, dep in candidates:
        unknown: list[int] = []
        subsumer: int | None = None
        for j, other in candidates:
            if j == i:
                continue
            verdict = entails([other], dep)
            if verdict is TriBool.TRUE:
                subsumer = j
                break
            if verdict is TriBool.UNKNOWN:
                unknown.append(j)
        if subsumer is not None:
            diagnostics.append(
                Diagnostic(
                    code="H004",
                    severity=Severity.WARNING,
                    message=f"subsumed by rule {subsumer}",
                    rule=i,
                    witness=f"rule {subsumer}",
                    tags=("hygiene", "subsumed-rule"),
                )
            )
            continue
        deep_subsumer: int | None = None
        if escalated_budget is not None:
            deep_subsumer = next(
                (
                    j
                    for j in unknown
                    if entails([deps[j]], dep, max_rounds=escalated_budget)
                    is TriBool.TRUE
                ),
                None,
            )
        if deep_subsumer is not None:
            diagnostics.append(
                Diagnostic(
                    code="D002",
                    severity=Severity.WARNING,
                    message=(
                        f"subsumed by rule {deep_subsumer} (escalated "
                        f"budget {escalated_budget})"
                    ),
                    rule=i,
                    witness=f"rule {deep_subsumer}",
                    tags=("deep", "subsumed-rule"),
                )
            )
        rest = [other for j, other in candidates if j != i]
        if not rest:
            continue
        verdict = entails(rest, dep)
        if verdict is TriBool.TRUE:
            diagnostics.append(
                Diagnostic(
                    code="H005",
                    severity=Severity.WARNING,
                    message="redundant: entailed by the rest of the set",
                    rule=i,
                    tags=("hygiene", "redundant-rule"),
                )
            )
        elif (
            verdict is TriBool.UNKNOWN
            and escalated_budget is not None
            and deep_subsumer is None
            and entails(rest, dep, max_rounds=escalated_budget)
            is TriBool.TRUE
        ):
            diagnostics.append(
                Diagnostic(
                    code="D003",
                    severity=Severity.WARNING,
                    message=(
                        f"redundant: entailed by the rest of the set "
                        f"(escalated budget {escalated_budget})"
                    ),
                    rule=i,
                    tags=("deep", "redundant-rule"),
                )
            )
    return tuple(diagnostics)
