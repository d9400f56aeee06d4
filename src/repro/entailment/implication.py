"""Logical implication between dependency sets.

``Σ ⊨ σ`` is decided by the classical freeze-and-chase reduction (Maier,
Mendelzon, Sagiv; restated in Section 9.2 of the paper): freeze the body
of ``σ`` into a database ``D_φ``, chase ``D_φ`` with ``Σ``, and evaluate
the frozen head as a Boolean conjunctive query.

When ``Σ`` contains egds, bodies are frozen into *labeled nulls* so the
chase may merge them; a 0-ary-safe tracking relation records where each
frozen variable ended up after merging.

The algorithms ask many questions of few premise sets, so a question
has two steps: :class:`Premises` prepares ``Σ`` once (its dependency
tuple, combined schema, whether it has egds, and its termination
certificate, computed on first use), and :func:`entails` decides one
conclusion against it.  Deciding is two steps again:
:func:`chase_frozen_body` freezes the body and chases it, and
:meth:`FrozenChase.verdict` evaluates the head on that chase.  The
chase depends only on the body, so :func:`entails_sharing` lets many
conclusions with one body share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Iterator, Sequence, Union

from ..analysis.certificates import (
    CertificateReport,
    certificate_for,
    default_budget,
)
from ..chase.engine import chase
from ..dependencies.edd import EDD, EqualityDisjunct
from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..homomorphisms.search import satisfies_atoms
from ..instances.instance import Instance
from ..lang.atoms import Atom, Fact, atoms_variables
from ..lang.schema import Relation, Schema
from ..lang.terms import Const, Null, Var
from ..telemetry import TELEMETRY, span
from .bcq import DEFAULT_CHASE_ROUNDS
from .trivalent import TriBool, tri_all

__all__ = [
    "Premises",
    "prepare_premises",
    "FrozenChase",
    "chase_frozen_body",
    "entails",
    "entails_sharing",
    "entails_all",
    "equivalent",
    "entailed_by_empty_theory",
]

Dependency = Union[TGD, EGD]
Conclusion = Union[TGD, EGD, EDD]

_TRACK_NAME = "@frz"


class Premises:
    """A premise set ``Σ`` prepared once for many questions ``Σ ⊨ σ``.

    It holds what every question over ``Σ`` shares: the dependency
    tuple, its combined schema, whether it has egds (bodies then freeze
    into labeled nulls), and its termination certificate.  The
    certificate is computed on first use — through
    :func:`~repro.analysis.certificates.certificate_for`, which answers
    a prepared set from this one — and kept, so no later question over
    the set hashes it for the memo or climbs the lattice again.

    :func:`entails` and :func:`entails_all` accept a prepared set
    wherever they accept a dependency sequence; it iterates over its
    members like one.
    """

    __slots__ = ("dependencies", "schema", "soft", "_certificate", "_parent")

    def __init__(self, dependencies: Iterable[Dependency]) -> None:
        deps = tuple(dependencies)
        self.dependencies = deps
        self.schema = Schema.combined(dep.schema for dep in deps)
        self.soft = any(isinstance(dep, EGD) for dep in deps)
        self._certificate: CertificateReport | None = None
        self._parent: Premises | None = None

    def __iter__(self) -> Iterator[Dependency]:
        return iter(self.dependencies)

    def __len__(self) -> int:
        return len(self.dependencies)

    def __getitem__(self, index: int) -> Dependency:
        return self.dependencies[index]

    def __repr__(self) -> str:
        return f"Premises({list(self.dependencies)!r})"

    @property
    def certificate(self) -> CertificateReport:
        """The set's termination certificate, computed once.

        A set made by :meth:`without` inherits its parent's certificate
        when that one guarantees termination: every subset of a set
        with a terminating certificate lies in the same class (the
        subset-closure argument of DESIGN.md §8.3), though its own
        strongest class may be smaller.  Otherwise it is certified on
        its own.
        """
        report = self._certificate
        if report is None:
            parent = self._parent
            if parent is not None and (
                parent.certificate.guarantees_termination
            ):
                report = parent.certificate
            else:
                report = certificate_for(self.dependencies)
            self._certificate = report
            self._parent = None
        return report

    def without(self, index: int) -> Premises:
        """``Σ`` minus its member at ``index``, prepared from ``Σ``.

        The subset keeps ``Σ``'s schema: relations no remaining member
        mentions stay empty in every chase, which changes no answer.
        """
        rest = Premises.__new__(Premises)
        rest.dependencies = (
            self.dependencies[:index] + self.dependencies[index + 1 :]
        )
        rest.schema = self.schema
        rest.soft = self.soft and any(
            isinstance(dep, EGD) for dep in rest.dependencies
        )
        rest._certificate = None
        rest._parent = self
        return rest


def prepare_premises(
    dependencies: Sequence[Dependency] | Premises,
) -> Premises:
    """``dependencies`` as a :class:`Premises` (itself if already one)."""
    if isinstance(dependencies, Premises):
        return dependencies
    return Premises(dependencies)


def _freeze_body(
    body: Sequence[Atom],
    body_vars: Sequence[Var],
    premises: Premises,
    extra_schema: Schema,
) -> tuple[Instance, Relation | None]:
    """Freeze the body, recording frozen elements in a tracking fact."""
    if premises.soft:
        frozen = {
            var: Null(-(i + 1)) for i, var in enumerate(body_vars)
        }
    else:
        frozen = {var: Const(f"@f_{var.name}") for var in body_vars}

    relations = [*extra_schema.relations, *premises.schema.relations]
    track: Relation | None = None
    facts = [atom.to_fact(frozen) for atom in body]
    if body_vars:
        track = Relation(_TRACK_NAME, len(body_vars))
        relations.append(track)
        facts.append(Fact(track, tuple(frozen[v] for v in body_vars)))
    schema = Schema(relations)
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


@dataclass(frozen=True)
class FrozenChase:
    """The chase of one frozen conclusion body under ``Σ``.

    It depends only on ``Σ``, the round budget and the body, so it
    decides every conclusion with that body: :meth:`verdict` reads one
    conclusion's answer off it.  ``reps`` maps each body variable to
    the element its frozen copy ended as (egd merges may have moved
    it); it is empty when the chase failed.
    """

    body: tuple[Atom, ...]
    instance: Instance
    reps: dict[Var, object]
    failed: bool
    terminated: bool

    def decides(self, conclusion: Conclusion) -> bool:
        """Can :meth:`verdict` answer ``conclusion`` from this chase?

        It can when the conclusion has this body and every relation it
        uses is in the chased instance's schema; a head over a
        relation outside ``Σ`` and the body that was frozen needs a
        chase of its own.
        """
        return (
            tuple(conclusion.body) == self.body
            and conclusion.schema <= self.instance.schema
        )

    def verdict(self, conclusion: Conclusion) -> TriBool:
        """``Σ ⊨ conclusion``, for a conclusion this chase decides."""
        if self.failed:
            return TriBool.TRUE
        if _conclusion_holds(conclusion, self.instance, self.reps):
            return TriBool.TRUE
        if self.terminated:
            return TriBool.FALSE
        return TriBool.UNKNOWN


def chase_frozen_body(
    premises: Premises,
    body: Sequence[Atom],
    schema: Schema,
    *,
    max_rounds: int | None = None,
) -> FrozenChase:
    """Freeze ``body`` over ``schema`` and chase it under ``premises``.

    ``max_rounds=None`` asks the set's certificate for the budget
    (:func:`~repro.analysis.certificates.default_budget`), once per
    chase, so ``chase.certificate`` counts the chases run unbudgeted.
    """
    body = tuple(body)
    body_vars = tuple(atoms_variables(body))
    database, track = _freeze_body(body, body_vars, premises, schema)
    budget = max_rounds
    if budget is None:
        budget = default_budget(premises, DEFAULT_CHASE_ROUNDS)
    result = chase(database, premises.dependencies, max_rounds=budget)
    reps = (
        {}
        if result.failed
        else _representatives(result.instance, track, body_vars)
    )
    return FrozenChase(
        body, result.instance, reps, result.failed, result.terminated
    )


def entails_sharing(
    premises: Premises,
    conclusion: Conclusion,
    chased: FrozenChase | None,
    *,
    max_rounds: int | None = None,
) -> tuple[TriBool, FrozenChase]:
    """``Σ ⊨ σ`` read off ``chased`` when that chase decides ``σ``.

    ``chased`` must come from this function or
    :func:`chase_frozen_body` with the same premises and
    ``max_rounds``.  When it is ``None`` or does not decide the
    conclusion (another body, or a relation outside its schema), the
    conclusion's body is frozen and chased afresh.  Returns the verdict
    and the chase it was read off, for the next conclusion to share.
    Each call counts one ``entailment.calls``.
    """
    started = perf_counter() if TELEMETRY.enabled else None
    with span("entails", conclusion=type(conclusion).__name__) as sp:
        if chased is None or not chased.decides(conclusion):
            chased = chase_frozen_body(
                premises,
                conclusion.body,
                conclusion.schema,
                max_rounds=max_rounds,
            )
        verdict = chased.verdict(conclusion)
        if TELEMETRY.enabled:
            TELEMETRY.count("entailment.calls")
            TELEMETRY.count(f"entailment.{verdict}")
            if started is not None:
                # Latency of the full decision, chase included.
                TELEMETRY.observe("time.entails", perf_counter() - started)
        sp.set(verdict=str(verdict))
        return verdict, chased


def entails(
    dependencies: Sequence[Dependency] | Premises,
    conclusion: Conclusion,
    *,
    max_rounds: int | None = None,
) -> TriBool:
    """``Σ ⊨ σ`` for a tgd, egd, or edd conclusion.

    With ``max_rounds=None``: a set with a termination certificate is
    chased to a fixpoint (definitive answers); otherwise a default
    budget applies and a negative-looking outcome is reported as
    ``UNKNOWN``.  Pass a :class:`Premises` to ask many questions of one
    set: it is prepared once, and each call only decides.

    Every call is one freeze-and-chase; verdicts are not memoized.
    To decide many conclusions with one body from one chase, use
    :func:`entails_sharing`.
    """
    verdict, __ = entails_sharing(
        prepare_premises(dependencies), conclusion, None,
        max_rounds=max_rounds,
    )
    return verdict


def entails_all(
    dependencies: Sequence[Dependency] | Premises,
    conclusions: Sequence[Conclusion],
    *,
    max_rounds: int | None = None,
) -> TriBool:
    """``Σ ⊨ σ`` for every conclusion, over ``Σ`` prepared once."""
    premises = prepare_premises(dependencies)
    return tri_all(
        entails(premises, conclusion, max_rounds=max_rounds)
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
