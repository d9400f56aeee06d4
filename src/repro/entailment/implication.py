"""Logical implication between dependency sets.

``Σ ⊨ σ`` is decided by the classical freeze-and-chase reduction (Maier,
Mendelzon, Sagiv; restated in Section 9.2 of the paper): freeze the body
of ``σ`` into a database ``D_φ``, chase ``D_φ`` with ``Σ``, and evaluate
the frozen head as a Boolean conjunctive query.

When ``Σ`` contains egds, bodies are frozen into *labeled nulls* so the
chase may merge them; a 0-ary-safe tracking relation records where each
frozen variable ended up after merging.
"""

from __future__ import annotations

from time import perf_counter
from typing import Sequence, Union

from ..analysis.certificates import default_budget
from ..chase.engine import chase
from ..dependencies.edd import EDD, EqualityDisjunct
from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..homomorphisms.search import satisfies_atoms
from ..instances.instance import Instance
from ..lang.atoms import Atom, atoms_variables
from ..lang.schema import Relation, Schema
from ..lang.terms import Const, Null, Var
from ..telemetry import TELEMETRY, span
from .bcq import DEFAULT_CHASE_ROUNDS
from .trivalent import TriBool, tri_all

__all__ = ["entails", "entails_all", "equivalent", "entailed_by_empty_theory"]

Dependency = Union[TGD, EGD]
Conclusion = Union[TGD, EGD, EDD]

_TRACK_NAME = "@frz"


def _conclusion_parts(conclusion: Conclusion):
    return conclusion.body, tuple(atoms_variables(conclusion.body))


def _freeze_body(
    body: Sequence[Atom],
    body_vars: Sequence[Var],
    dependencies: Sequence[Dependency],
    extra_schema: Schema,
) -> tuple[Instance, Relation | None]:
    """Freeze the body, recording frozen elements in a tracking fact."""
    soft = any(isinstance(dep, EGD) for dep in dependencies)
    if soft:
        frozen = {
            var: Null(-(i + 1)) for i, var in enumerate(body_vars)
        }
    else:
        frozen = {var: Const(f"@f_{var.name}") for var in body_vars}

    schema = Schema.combined(
        (extra_schema, *(dep.schema for dep in dependencies))
    )
    track: Relation | None = None
    facts = [atom.to_fact(frozen) for atom in body]
    if body_vars:
        track = Relation(_TRACK_NAME, len(body_vars))
        schema = schema.union(Schema([track]))
        from ..lang.atoms import Fact

        facts.append(Fact(track, tuple(frozen[v] for v in body_vars)))
    database = Instance.from_facts(schema, facts)
    if not facts:
        database = Instance.empty(schema)
    return database, track


def _representatives(
    instance: Instance, track: Relation | None, body_vars: Sequence[Var]
) -> dict[Var, object]:
    if track is None:
        return {}
    tuples = instance.tuples(track)
    assert len(tuples) == 1, "tracking fact must survive the chase uniquely"
    (row,) = tuples
    return dict(zip(body_vars, row))


def _conclusion_holds(
    conclusion: Conclusion,
    instance: Instance,
    reps: dict[Var, object],
) -> bool:
    if isinstance(conclusion, TGD):
        partial = {
            var: reps[var] for var in conclusion.frontier
        }
        return satisfies_atoms(conclusion.head, instance, partial)
    if isinstance(conclusion, EGD):
        return (
            conclusion.is_trivial
            or reps[conclusion.lhs] == reps[conclusion.rhs]
        )
    body_vars = set(atoms_variables(conclusion.body))
    for disjunct in conclusion.disjuncts:
        if isinstance(disjunct, EqualityDisjunct):
            if reps[disjunct.lhs] == reps[disjunct.rhs]:
                return True
        else:
            partial = {
                var: reps[var]
                for var in disjunct.variables()
                if var in body_vars
            }
            if satisfies_atoms(disjunct.atoms, instance, partial):
                return True
    return False


def entails(
    dependencies: Sequence[Dependency],
    conclusion: Conclusion,
    *,
    max_rounds: int | None = None,
) -> TriBool:
    """``Σ ⊨ σ`` for a tgd, egd, or edd conclusion.

    With ``max_rounds=None``: weakly acyclic sets are chased to a
    fixpoint (definitive answers); otherwise a default budget applies and
    a negative-looking outcome is reported as ``UNKNOWN``.

    Every call is one freeze-and-chase; verdicts are not memoized.
    """
    deps = list(dependencies)
    started = perf_counter() if TELEMETRY.enabled else None
    with span("entails", conclusion=type(conclusion).__name__) as sp:
        body, body_vars = _conclusion_parts(conclusion)
        database, track = _freeze_body(
            body, body_vars, deps, conclusion.schema
        )
        budget = max_rounds
        if budget is None:
            # Certificate-gated: a memoized termination certificate
            # (weak/joint/super-weak acyclicity) chases to a fixpoint.
            budget = default_budget(deps, DEFAULT_CHASE_ROUNDS)
        result = chase(database, deps, max_rounds=budget)
        if result.failed:
            verdict = TriBool.TRUE
        else:
            reps = _representatives(result.instance, track, body_vars)
            if _conclusion_holds(conclusion, result.instance, reps):
                verdict = TriBool.TRUE
            elif result.terminated:
                verdict = TriBool.FALSE
            else:
                verdict = TriBool.UNKNOWN
        if TELEMETRY.enabled:
            TELEMETRY.count("entailment.calls")
            TELEMETRY.count(f"entailment.{verdict}")
            if started is not None:
                # Latency of the full decision, chase included.
                TELEMETRY.observe("time.entails", perf_counter() - started)
        sp.set(verdict=str(verdict))
        return verdict


def entails_all(
    dependencies: Sequence[Dependency],
    conclusions: Sequence[Conclusion],
    *,
    max_rounds: int | None = None,
) -> TriBool:
    return tri_all(
        entails(dependencies, conclusion, max_rounds=max_rounds)
        for conclusion in conclusions
    )


def equivalent(
    left: Sequence[Dependency],
    right: Sequence[Dependency],
    *,
    max_rounds: int | None = None,
) -> TriBool:
    """``Σ ≡ Σ'``: mutual entailment of every member."""
    return entails_all(left, list(right), max_rounds=max_rounds) & entails_all(
        right, list(left), max_rounds=max_rounds
    )


def entailed_by_empty_theory(conclusion: Conclusion) -> bool:
    """Is the dependency a tautology (entailed by the empty set)?"""
    return entails((), conclusion).require("empty theory is decidable")
