"""Rewrite(GTGD, LTGD) and Rewrite(FGTGD, GTGD) — Algorithms 1 and 2.

Both algorithms rest on the Linearization Lemma (6.3) and Guardedization
Lemma (7.3): if a set ``Σ ∈ TGD_{n,m}`` has *any* equivalent linear
(resp. guarded) set, it has one inside ``LTGD_{n,m}`` (resp.
``GTGD_{n,m}``) — so a search of that finite fragment is complete.

    Σ' := { σ | σ over S, {σ} ∈ LTGD_{n,m}, Σ ⊨ σ }
    if Σ' ≠ ∅ and Σ' ⊨ Σ: return Σ'  else: return ⊥

Entailment is chase-based (Section 9.2 / Maier–Mendelzon–Sagiv) and may
be inconclusive on pathological inputs; inconclusive candidates are
reported rather than guessed at (see :class:`RewriteResult.status`).

The candidate scan itself runs on the :mod:`repro.search` kernel: the
enumerator of the target class (one table, ``_ENUMERATORS``) yields the
candidates, and candidate entailment is an
:class:`~repro.search.EntailmentDecider`.  ``search_budget`` bounds
a run (candidates and/or wall-clock); a budget-stopped search degrades to
``INCONCLUSIVE`` — never to a false ⊥ — and the result records that it
was cut short.

Entailment verdicts are not memoized: the candidates of a run are
distinct questions, and a verdict memo answered only 0.5% of the calls
of the ``rewrite-mix`` benchmark.  What repeats is the body: every
enumerator emits all heads of a body in one run, and the decider
chases each run's body once and reads every head's verdict off that
chase.  The verification pass and :func:`minimize_tgds` make one
freeze-and-chase per call.  Every chase stops at the round where its
conclusion first maps (:mod:`repro.entailment.implication`).  The
premise set repeats too, so each is prepared once
(:class:`~repro.entailment.Premises`): the decider's source set, the
verification pass's entailed set, and the rewriting
:func:`minimize_tgds` cuts its subsets from.  ``RewriteResult.metrics``
carries the run's telemetry counter delta when telemetry is on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from ..dependencies.classes import TGDClass, all_in_class, set_width
from ..dependencies.enumeration import (
    enumerate_frontier_guarded_tgds,
    enumerate_full_tgds,
    enumerate_guarded_tgds,
    enumerate_linear_tgds,
)
from ..dependencies.tgd import TGD
from ..entailment.implication import Premises, entails, entails_all
from ..lang.schema import Schema
from ..search import (
    EntailmentDecider,
    SearchBudget,
    SearchOutcome,
    run_search,
)
from ..telemetry import TELEMETRY, MetricsProbe, span

if TYPE_CHECKING:  # pragma: no cover
    from ..telemetry.report import RunReport

__all__ = [
    "RewriteStatus",
    "RewriteResult",
    "PreflightError",
    "guarded_to_linear",
    "frontier_guarded_to_guarded",
    "rewrite",
    "minimize_tgds",
]


class RewriteStatus:
    SUCCESS = "success"
    FAILURE = "failure"
    INCONCLUSIVE = "inconclusive"


class PreflightError(ValueError):
    """The source set is outside the algorithm's input fragment.

    Raised before any search starts.  ``diagnostics`` carries one
    explained finding per offending rule (code ``R001``), each with the
    concrete witness — the variable no body atom covers, or the body
    atom that breaks linearity — produced by
    :mod:`repro.analysis.fragments`.
    """

    def __init__(self, message: str, diagnostics: tuple = ()):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class RewriteResult:
    """Outcome of a rewriting attempt.

    ``status`` is ``success`` (an equivalent set was found and verified),
    ``failure`` (a definitive ⊥ — no equivalent set exists in the target
    class), or ``inconclusive`` (the chase budget left some candidate or
    the final entailment check undecided, or a search budget stopped the
    scan before the space was drained — ``exhausted`` distinguishes the
    latter).

    ``metrics`` is the telemetry counter delta observed during the run
    when telemetry was enabled (``{}`` otherwise): candidate, entailment,
    chase, and homomorphism operation counts.
    """

    status: str
    rewriting: tuple[TGD, ...] | None
    source: tuple[TGD, ...]
    target_class: TGDClass
    width: tuple[int, int]
    candidates_considered: int
    entailed_candidates: int
    unknown_candidates: tuple[TGD, ...]
    elapsed_seconds: float
    metrics: Mapping[str, int] = field(default_factory=dict, compare=False)
    exhausted: bool = False
    short_circuit: bool = False

    @property
    def succeeded(self) -> bool:
        return self.status == RewriteStatus.SUCCESS

    def run_report(self) -> "RunReport":
        """The schema-versioned observability artifact for this run:
        target class / width plus this run's counter delta and
        the process-wide histogram state (see
        :mod:`repro.telemetry.report`)."""
        from ..telemetry.report import build_run_report

        config: dict[str, object] = {
            "engine": "rewrite",
            "target_class": str(self.target_class),
            "width": list(self.width),
            "status": self.status,
            "short_circuit": self.short_circuit,
            "exhausted": self.exhausted,
        }
        return build_run_report("rewrite", config, counters=self.metrics)

    def __str__(self) -> str:
        n, m = self.width
        header = (
            f"rewrite -> {self.target_class}: {self.status} "
            f"(n={n}, m={m}, {self.entailed_candidates}/"
            f"{self.candidates_considered} candidates entailed, "
            f"{len(self.unknown_candidates)} unknown, "
            f"{self.elapsed_seconds:.3f}s)"
        )
        if self.short_circuit:
            header += " [source already in target class]"
        if self.exhausted:
            header += " [search budget exhausted]"
        if self.rewriting is not None:
            body = "\n".join(f"  {tgd}" for tgd in self.rewriting)
            return f"{header}\n{body}"
        return header


def minimize_tgds(
    tgds: Sequence[TGD],
    *,
    max_rounds: int | None = None,
) -> tuple[TGD, ...]:
    """Greedily drop members entailed by the remaining ones.

    Keeps the set logically equivalent; only definitively redundant
    members (entailment = TRUE) are removed.  The set is prepared once
    and every ``rest`` is cut from it (:meth:`Premises.without`), so a
    set whose certificate guarantees termination is certified once for
    all its subsets.

    One pass from the last member to the first decides every member.
    A member kept on FALSE stays: entailment is monotone in the
    premises, and every later ``rest`` is a subset of the one that did
    not entail it.  Only the members kept on UNKNOWN are asked again,
    in passes of their own while a pass removes something, so the
    result is the one of re-sweeping the whole set until nothing
    changes.
    """
    current = Premises(tgds)
    # The ids of the members a pass asks: all of them, then the UNKNOWN.
    asked = {id(member) for member in current}
    while asked:
        undecided: set[int] = set()
        changed = False
        for index in range(len(current) - 1, -1, -1):
            member = current[index]
            if id(member) not in asked:
                continue
            rest = current.without(index)
            if not rest:
                break
            verdict = entails(rest, member, max_rounds=max_rounds)
            if verdict.is_true:
                current = rest
                changed = True
            elif not verdict.is_definite:
                undecided.add(id(member))
        asked = undecided if changed else set()
    return current.dependencies


def _require_fragment(
    source: Sequence[TGD], cls: TGDClass, algorithm: str
) -> None:
    """Pre-flight the input fragment; raise :class:`PreflightError` with
    explained ``R001`` diagnostics when a source rule falls outside."""
    from ..analysis.diagnostics import Diagnostic, Severity
    from ..analysis.fragments import explain_fragment

    offenders = [
        (index, explanation)
        for index, tgd in enumerate(source)
        for explanation in (explain_fragment(tgd, cls),)
        if not explanation.member
    ]
    if not offenders:
        return
    diagnostics = tuple(
        Diagnostic(
            code="R001",
            severity=Severity.ERROR,
            message=f"{algorithm} expects {cls} input: {exp.reason}",
            rule=index,
            witness=exp.witness(),
            tags=("rewrite", "preflight"),
        )
        for index, exp in offenders
    )
    from ..analysis.deep import loop_restriction_diagnostics

    # A set outside the requested fragment can still be FO-rewritable:
    # attach the loop-restriction hint so the caller knows the failure
    # is about this algorithm's fragment, not rewritability itself.
    diagnostics += loop_restriction_diagnostics(source)
    index, exp = offenders[0]
    raise PreflightError(
        f"{algorithm} expects a set of {cls} tgds; rule {index} is not "
        f"({exp.reason}; witness: {exp.witness()})",
        diagnostics,
    )


# Target class -> enumerator of its ``TGD_{n,m}`` fragment.
_ENUMERATORS = {
    TGDClass.LINEAR: enumerate_linear_tgds,
    TGDClass.GUARDED: enumerate_guarded_tgds,
    TGDClass.FRONTIER_GUARDED: enumerate_frontier_guarded_tgds,
    TGDClass.FULL: enumerate_full_tgds,
}


def _minimized(
    tgds: tuple[TGD, ...], minimize: bool, max_rounds: int | None
) -> tuple[TGD, ...]:
    if not minimize:
        return tgds
    with span("rewrite.minimize"):
        return minimize_tgds(tgds, max_rounds=max_rounds)


def _search_rewriting(
    source: tuple[TGD, ...],
    target_class: TGDClass,
    schema,
    max_rounds: int | None,
    minimize: bool,
    search_budget: SearchBudget | None,
    *,
    short_circuit: bool = False,
    **caps,
) -> RewriteResult:
    """Search the target class's fragment at the source's width; with
    ``short_circuit`` (see :func:`rewrite`), return the source as its own
    rewriting without a search."""
    start = time.perf_counter()
    width = set_width(source)
    probe = MetricsProbe()
    with span(
        "rewrite", target=str(target_class), source_size=len(source)
    ) as sp:
        rewriting: tuple[TGD, ...] | None
        if short_circuit:
            rewriting = _minimized(source, minimize, max_rounds)
            if TELEMETRY.enabled:
                TELEMETRY.count("rewrite.short_circuit")
            status = RewriteStatus.SUCCESS
            outcome = SearchOutcome(
                accepted=rewriting, unknown=(), considered=0, stop_reason=None
            )
            sp.set(status=status, short_circuit=True)
        else:
            n, m = width
            # Full tgds have no existential variables: no ``m``.
            space = (n,) if target_class is TGDClass.FULL else (n, m)
            with span("rewrite.search"):
                outcome = run_search(
                    _ENUMERATORS[target_class](
                        schema or Schema.combined(t.schema for t in source),
                        *space,
                        **caps,
                    ),
                    EntailmentDecider(premises=source, max_rounds=max_rounds),
                    budget=search_budget,
                )
            for name, total in (
                ("rewrite.candidates_considered", outcome.considered),
                ("rewrite.candidates_entailed", len(outcome.accepted)),
                ("rewrite.candidates_unknown", len(outcome.unknown)),
            ):
                if total:
                    TELEMETRY.count(name, total)
            # A budget-stopped scan may have missed entailed candidates,
            # so ⊥ is never definitive; SUCCESS still is, since
            # verification only needs the candidates actually found.
            status, rewriting = RewriteStatus.FAILURE, None
            if outcome.accepted:
                with span("rewrite.verify", entailed=len(outcome.accepted)):
                    back = entails_all(
                        list(outcome.accepted),
                        list(source),
                        max_rounds=max_rounds,
                    )
                if back.is_true:
                    status = RewriteStatus.SUCCESS
                    rewriting = _minimized(
                        outcome.accepted, minimize, max_rounds
                    )
                elif not back.is_definite:
                    status = RewriteStatus.INCONCLUSIVE
            if status == RewriteStatus.FAILURE and (
                outcome.unknown or outcome.exhausted
            ):
                status = RewriteStatus.INCONCLUSIVE
            sp.set(status=status, considered=outcome.considered)
        return RewriteResult(
            status=status,
            rewriting=rewriting,
            source=source,
            target_class=target_class,
            width=width,
            candidates_considered=outcome.considered,
            entailed_candidates=len(outcome.accepted),
            unknown_candidates=outcome.unknown,
            elapsed_seconds=time.perf_counter() - start,
            metrics=probe.delta(),
            exhausted=outcome.exhausted,
            short_circuit=short_circuit,
        )


def guarded_to_linear(
    source: Sequence[TGD],
    *,
    schema=None,
    max_rounds: int | None = None,
    minimize: bool = True,
    max_head_atoms: int | None = None,
    search_budget: SearchBudget | None = None,
) -> RewriteResult:
    """Algorithm 1 (``G-to-L``): rewrite a guarded set into an equivalent
    linear set from ``LTGD_{n,m}``, or report ⊥.

    Complete by the Linearization Lemma; the candidate space is complete
    up to logical equivalence when ``max_head_atoms is None``.

    Pre-flight: a non-guarded source raises :class:`PreflightError`
    with the witnessing unguarded variable.  (The search always runs,
    even for already-linear sources — the algorithm entry points are
    the reference implementations; use :func:`rewrite` for the
    short-circuiting driver.)
    """
    source = tuple(source)
    _require_fragment(source, TGDClass.GUARDED, "Algorithm 1 (G-to-L)")
    return _search_rewriting(
        source, TGDClass.LINEAR, schema, max_rounds, minimize, search_budget,
        max_head_atoms=max_head_atoms,
    )


def frontier_guarded_to_guarded(
    source: Sequence[TGD],
    *,
    schema=None,
    max_rounds: int | None = None,
    minimize: bool = True,
    max_extra_body_atoms: int | None = None,
    max_head_atoms: int | None = None,
    search_budget: SearchBudget | None = None,
) -> RewriteResult:
    """Algorithm 2 (``FG-to-G``): rewrite a frontier-guarded set into an
    equivalent guarded set from ``GTGD_{n,m}``, or report ⊥.

    Complete by the Guardedization Lemma (with unrestricted caps).

    Pre-flight: a non-frontier-guarded source raises
    :class:`PreflightError` with the witnessing frontier variable.
    (As with Algorithm 1, the search always runs; :func:`rewrite` is
    the short-circuiting driver.)
    """
    source = tuple(source)
    _require_fragment(
        source, TGDClass.FRONTIER_GUARDED, "Algorithm 2 (FG-to-G)"
    )
    return _search_rewriting(
        source, TGDClass.GUARDED, schema, max_rounds, minimize, search_budget,
        max_extra_body_atoms=max_extra_body_atoms,
        max_head_atoms=max_head_atoms,
    )


def rewrite(
    source: Sequence[TGD],
    target_class: TGDClass,
    *,
    schema=None,
    max_rounds: int | None = None,
    minimize: bool = True,
    search_budget: SearchBudget | None = None,
    **caps,
) -> RewriteResult:
    """Generic driver: rewrite into LINEAR, GUARDED, or FULL.

    LINEAR and GUARDED follow Algorithms 1/2 (and accept any tgd input —
    the Linearization/Guardedization Lemmas hold for any
    ``TGD_{n,m}``-ontology).  FRONTIER_GUARDED searches ``FGTGD_{n,m}``
    (justified by Lemma 8.3); FULL searches ``TGD_{n,0}`` (Corollary 5.1
    scopes when it can succeed).

    Pre-flight: when the source already lies in the target class and no
    enumeration caps were passed, the search is skipped and the source
    is returned as its own rewriting (``short_circuit=True`` on the
    result).  A capped call always searches — the caps ask whether the
    *restricted* space suffices, which the source may not answer.
    """
    source = tuple(source)
    if target_class not in _ENUMERATORS:
        raise ValueError(f"unsupported rewrite target {target_class}")
    return _search_rewriting(
        source, target_class, schema, max_rounds, minimize, search_budget,
        short_circuit=not caps and all_in_class(source, target_class),
        **caps,
    )

