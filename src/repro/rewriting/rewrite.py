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
enumerators' generators are the candidates, and candidate entailment is
an :class:`~repro.search.EntailmentDecider`.  ``search_budget`` bounds
a run (candidates and/or wall-clock); a budget-stopped search degrades to
``INCONCLUSIVE`` — never to a false ⊥ — and the result records that it
was cut short.

Entailment verdicts are not memoized: the candidates of a run are
distinct questions, and a verdict memo answered only 0.5% of the calls
of the ``rewrite-mix`` benchmark.  What repeats is the body: the
enumerators emit every head of a body in one run, and the decider
chases each run's body once and reads every head's verdict off that
chase.  The verification pass and :func:`minimize_tgds` make one
freeze-and-chase per call.  The premise set repeats too, so each is
prepared once
(:class:`~repro.entailment.Premises`): the decider's source set, the
verification pass's entailed set, and the rewriting
:func:`minimize_tgds` cuts its subsets from.  ``RewriteResult.metrics``
carries the run's telemetry counter delta when telemetry is on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..dependencies.classes import TGDClass, all_in_class, set_width
from ..dependencies.enumeration import (
    enumerate_frontier_guarded_tgds,
    enumerate_full_tgds,
    enumerate_guarded_tgds,
    enumerate_linear_tgds,
)
from ..dependencies.tgd import TGD
from ..entailment.implication import Premises, entails, entails_all
from ..search import EntailmentDecider, SearchBudget, Verdict, run_search
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
        from ..telemetry.report import RunReport, build_run_report

        config: dict[str, object] = {
            "engine": "rewrite",
            "target_class": str(self.target_class),
            "width": list(self.width),
            "status": self.status,
            "short_circuit": self.short_circuit,
            "exhausted": self.exhausted,
        }
        report: RunReport = build_run_report(
            "rewrite", config, counters=self.metrics
        )
        return report

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
    """
    current = Premises(tgds)
    changed = True
    while changed:
        changed = False
        for index in range(len(current) - 1, -1, -1):
            rest = current.without(index)
            if not rest:
                break
            if entails(rest, current[index], max_rounds=max_rounds).is_true:
                current = rest
                changed = True
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


def _short_circuit_result(
    source: tuple[TGD, ...],
    target_class: TGDClass,
    *,
    minimize: bool,
    max_rounds: int | None,
) -> RewriteResult:
    """SUCCESS without a search: the source already lies in the target
    class, so it is its own rewriting (only taken when no enumeration
    caps restrict the candidate space — a capped call explicitly asks
    whether the *restricted* fragment suffices)."""
    start = time.perf_counter()
    probe = MetricsProbe()
    with span(
        "rewrite", target=str(target_class), source_size=len(source)
    ) as sp:
        rewriting = source
        if minimize:
            with span("rewrite.minimize"):
                rewriting = minimize_tgds(source, max_rounds=max_rounds)
        if TELEMETRY.enabled:
            TELEMETRY.count("rewrite.short_circuit")
        sp.set(status=RewriteStatus.SUCCESS, short_circuit=True)
        return RewriteResult(
            status=RewriteStatus.SUCCESS,
            rewriting=rewriting,
            source=source,
            target_class=target_class,
            width=set_width(source),
            candidates_considered=0,
            entailed_candidates=len(rewriting),
            unknown_candidates=(),
            elapsed_seconds=time.perf_counter() - start,
            metrics=probe.delta(),
            short_circuit=True,
        )


def _rewrite_with_candidates(
    source: Sequence[TGD],
    target_class: TGDClass,
    candidates: Iterable[TGD],
    *,
    max_rounds: int | None,
    minimize: bool,
    search_budget: SearchBudget | None = None,
) -> RewriteResult:
    start = time.perf_counter()
    source = tuple(source)
    width = set_width(source)
    probe = MetricsProbe()

    def observe(candidate: TGD, verdict: Verdict) -> None:
        if TELEMETRY.enabled:
            TELEMETRY.count("rewrite.candidates_considered")
            if verdict is Verdict.ACCEPT:
                TELEMETRY.count("rewrite.candidates_entailed")
            elif verdict is Verdict.UNKNOWN:
                TELEMETRY.count("rewrite.candidates_unknown")

    with span(
        "rewrite", target=str(target_class), source_size=len(source)
    ) as sp:
        with span("rewrite.search"):
            outcome = run_search(
                candidates,
                EntailmentDecider(premises=source, max_rounds=max_rounds),
                budget=search_budget,
                observe=observe,
            )
        entailed = list(outcome.accepted)
        unknown = outcome.unknown

        def finish(
            status: str, rewriting: tuple[TGD, ...] | None
        ) -> RewriteResult:
            sp.set(status=status, considered=outcome.considered)
            return RewriteResult(
                status=status,
                rewriting=rewriting,
                source=source,
                target_class=target_class,
                width=width,
                candidates_considered=outcome.considered,
                entailed_candidates=len(entailed),
                unknown_candidates=unknown,
                elapsed_seconds=time.perf_counter() - start,
                metrics=probe.delta(),
                exhausted=outcome.exhausted,
            )

        # A budget-stopped scan may have missed entailed candidates, so
        # ⊥ is never definitive; SUCCESS still is, since verification
        # only needs the candidates actually found.
        if entailed:
            with span("rewrite.verify", entailed=len(entailed)):
                back = entails_all(
                    entailed, list(source), max_rounds=max_rounds
                )
            if back.is_true:
                rewriting = tuple(entailed)
                if minimize:
                    with span("rewrite.minimize"):
                        rewriting = minimize_tgds(
                            rewriting, max_rounds=max_rounds
                        )
                return finish(RewriteStatus.SUCCESS, rewriting)
            if not back.is_definite or unknown or outcome.exhausted:
                return finish(RewriteStatus.INCONCLUSIVE, None)
            return finish(RewriteStatus.FAILURE, None)
        if unknown or outcome.exhausted:
            return finish(RewriteStatus.INCONCLUSIVE, None)
        return finish(RewriteStatus.FAILURE, None)


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
    schema = schema or _combined_schema(source)
    n, m = set_width(source)
    candidates = enumerate_linear_tgds(
        schema, n, m, max_head_atoms=max_head_atoms
    )
    return _rewrite_with_candidates(
        source,
        TGDClass.LINEAR,
        candidates,
        max_rounds=max_rounds,
        minimize=minimize,
        search_budget=search_budget,
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
    schema = schema or _combined_schema(source)
    n, m = set_width(source)
    candidates = enumerate_guarded_tgds(
        schema,
        n,
        m,
        max_extra_body_atoms=max_extra_body_atoms,
        max_head_atoms=max_head_atoms,
    )
    return _rewrite_with_candidates(
        source,
        TGDClass.GUARDED,
        candidates,
        max_rounds=max_rounds,
        minimize=minimize,
        search_budget=search_budget,
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
    if target_class not in (
        TGDClass.LINEAR,
        TGDClass.GUARDED,
        TGDClass.FRONTIER_GUARDED,
        TGDClass.FULL,
    ):
        raise ValueError(f"unsupported rewrite target {target_class}")
    if not caps and all_in_class(source, target_class):
        return _short_circuit_result(
            source,
            target_class,
            minimize=minimize,
            max_rounds=max_rounds,
        )
    schema = schema or _combined_schema(source)
    n, m = set_width(source)
    if target_class is TGDClass.LINEAR:
        candidates = enumerate_linear_tgds(schema, n, m, **caps)
    elif target_class is TGDClass.GUARDED:
        candidates = enumerate_guarded_tgds(schema, n, m, **caps)
    elif target_class is TGDClass.FRONTIER_GUARDED:
        candidates = enumerate_frontier_guarded_tgds(schema, n, m, **caps)
    elif target_class is TGDClass.FULL:
        candidates = enumerate_full_tgds(schema, n, **caps)
    else:
        raise ValueError(f"unsupported rewrite target {target_class}")
    return _rewrite_with_candidates(
        source,
        target_class,
        candidates,
        max_rounds=max_rounds,
        minimize=minimize,
        search_budget=search_budget,
    )


def _combined_schema(source: Sequence[TGD]):
    from ..lang.schema import Schema

    return Schema.combined(tgd.schema for tgd in source)
