"""Chase-based acyclicity: model-summarising (MSA) and model-faithful
(MFA) acyclicity, computed by actually chasing the critical instance.

The syntactic lattice (:mod:`repro.analysis.acyclicity`) reasons about
where nulls *could* flow; the semantic notions of Cuenca Grau et al.
(JAIR 2013) instead Skolemize the rule set and run the chase over the
1-critical instance, watching the terms the chase really builds:

* **MFA** (model-faithful): replace each existential variable ``y`` of
  rule ``r`` with the Skolem term ``f_{r,y}(frontier)`` and run the
  Skolem (oblivious) chase of the critical instance.  The set is MFA
  iff the chase terminates without ever building a term in which a
  Skolem function occurs *nested inside itself* — the cycle monitor
  aborts the run at the first such term (via the engine's
  :class:`~repro.chase.engine.ChaseMonitorStop` seam), so non-MFA sets
  stop as soon as the first cyclic term appears rather than diverging.
* **MSA** (model-summarising): collapse each Skolem function to a
  single summary constant ``c_f`` and run the same chase — now over a
  finite domain, so it *always* terminates, in polynomial time.  During
  the run the analysis records a dependency edge ``g → f`` whenever an
  invention of ``f`` consumes a summary constant ``c_g`` among its
  frontier arguments; the set is MSA iff that graph is acyclic.  MSA
  over-approximates term equality (all ``f``-terms collapse), so
  MSA ⊆ MFA, and both properly extend super-weak acyclicity.

Soundness: MFA of the critical instance implies the Skolem chase of
*every* instance terminates, which implies termination of every
restricted-chase sequence — exactly what the budget gate in
:mod:`repro.analysis.certificates` needs.  Both notions are proven for
tgd-only sets; the certificate layer never consults them when egds are
present.

Determinism and isolation: the internal chases run with telemetry
*paused* and inside
:meth:`PLAN_CACHE.scoped() <repro.memo.Memo.scoped>`,
so the join-plan cache and the ``chase.*`` counters that the committed
benchmark baselines pin come out of them unchanged.  The
only telemetry they emit is their own: ``analysis.msa_checks`` /
``analysis.mfa_checks`` counters, ``analysis.semantic_cache_hits``,
and the ``analysis.mfa_chase_rounds`` histogram.  Reports are memoized
on the exact, ordered rule tuple: a witness names Skolem functions
``@sk<i>.<variable>`` after the rules' variables, so a renamed set is
analysed on its own and a memo hit returns the witness a cold analysis
of that very set would.

Budgets: the MFA chase always stops in theory (an infinite Skolem
chase must eventually nest a function inside itself), but "eventually"
is 2EXPTIME-sized in the worst case, so both checks carry fact/round
safety budgets; an exhausted budget yields an *inconclusive* report
(``acyclic is None``), which the certificate layer treats as "no
certificate" — sound, never unsafe.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from ..chase.engine import ChaseMonitorStop, StopReason, chase
from ..dependencies.tgd import TGD
from ..homomorphisms.plans import PLAN_CACHE
from ..instances.critical import critical_instance
from ..lang.schema import Schema
from ..lang.terms import Const, Var
from ..memo import Memo, register
from ..telemetry import TELEMETRY
from .acyclicity import _find_cycle

__all__ = [
    "SemanticReport",
    "SKOLEM_PREFIX",
    "MFA_MAX_FACTS",
    "MSA_MAX_FACTS",
    "is_mfa",
    "is_msa",
    "mfa_report",
    "msa_report",
    "skolem_functions",
]

SKOLEM_PREFIX = "@sk"

# Safety budgets for the internal chases.  MSA's domain is finite so the
# fact bound is generous; MFA's chase is the real 2EXPTIME beast, so its
# bound is the knob that keeps the check interactive.  Exhaustion means
# "inconclusive", never "certified".
MFA_MAX_FACTS = 5000
MSA_MAX_FACTS = 50000


@dataclass(frozen=True)
class SemanticReport:
    """Outcome of a chase-based acyclicity check.

    ``acyclic`` is three-valued: ``True`` (certified), ``False`` (a
    concrete cyclic term / summary cycle was found — ``cycle`` names
    the Skolem functions on it), or ``None`` (the safety budget ran
    out before a verdict).  ``rounds`` is how many chase rounds the
    check ran.
    """

    acyclic: bool | None
    cycle: tuple[str, ...] | None
    rounds: int

    def __bool__(self) -> bool:
        return self.acyclic is True


@contextmanager
def _telemetry_paused() -> Iterator[None]:
    """Silence counters/spans for the internal analysis chases and run
    them against a scoped plan table: their operation counts and plans
    are implementation detail, and letting them bump ``chase.*`` or
    the plan cache would shift every committed benchmark baseline."""
    enabled, spans = TELEMETRY.enabled, TELEMETRY.spans
    TELEMETRY.enabled = False
    TELEMETRY.spans = False
    try:
        with PLAN_CACHE.scoped():
            yield
    finally:
        TELEMETRY.enabled = enabled
        TELEMETRY.spans = spans


def skolem_functions(
    tgds: Sequence[TGD],
) -> "OrderedDict[tuple[TGD, str], Const]":
    """One Skolem function symbol per (rule, existential variable), in
    the engine's canonical rule order (sorted by ``str``), named
    ``@sk<rule>.<variable>``."""
    functions: "OrderedDict[tuple[TGD, str], Const]" = OrderedDict()
    for index, tgd in enumerate(sorted(tgds, key=str)):
        for var in tgd.existential_variables:
            functions.setdefault(
                (tgd, var.name), Const(f"{SKOLEM_PREFIX}{index}.{var.name}")
            )
    return functions


def _mentions(element: object, fn: Const) -> bool:
    """Does ``fn`` occur anywhere inside a (possibly nested) term?"""
    if element == fn:
        return True
    if isinstance(element, tuple):
        return any(_mentions(part, fn) for part in element)
    return False


def _tgd_schema(tgds: Sequence[TGD]) -> Schema:
    return Schema.combined(tgd.schema for tgd in tgds)


_cache: Memo[SemanticReport] = register("semantic", Memo(
    512, hit_counter="analysis.semantic_cache_hits"
))


def mfa_report(
    tgds: Sequence[TGD],
    *,
    max_facts: int = MFA_MAX_FACTS,
) -> SemanticReport:
    """Model-faithful acyclicity via the monitored Skolem chase of the
    1-critical instance."""
    tgds = [tgd for tgd in tgds if isinstance(tgd, TGD)]
    if not tgds:
        return SemanticReport(True, None, 0)
    key = ("mfa", tuple(tgds), max_facts)
    hit = _cache.get(key)
    if hit is not None:
        return hit
    functions = skolem_functions(tgds)
    nested: list[str] = []

    def inventor(
        tgd: TGD, var: Var, assignment: Mapping[Var, object]
    ) -> object:
        fn = functions[(tgd, var.name)]
        args = tuple(assignment[v] for v in tgd.frontier)
        for arg in args:
            if _mentions(arg, fn):
                nested.append(fn.name)
                raise ChaseMonitorStop(fn.name)
        return (fn, *args)

    start = critical_instance(_tgd_schema(tgds), 1)
    with _telemetry_paused():
        result = chase(
            start,
            tgds,
            variant="oblivious",
            max_facts=max_facts,
            inventor=inventor,
        )
    if result.stop_reason == StopReason.MONITOR:
        report = SemanticReport(
            False, (nested[0], nested[0]), result.rounds
        )
    elif result.stop_reason == StopReason.FIXPOINT:
        report = SemanticReport(True, None, result.rounds)
    else:  # budget exhausted: inconclusive, never certified
        report = SemanticReport(None, None, result.rounds)
    if TELEMETRY.enabled:
        TELEMETRY.count("analysis.mfa_checks")
        TELEMETRY.observe("analysis.mfa_chase_rounds", result.rounds)
    _cache.put(key, report)
    return report


def msa_report(
    tgds: Sequence[TGD],
    *,
    max_facts: int = MSA_MAX_FACTS,
) -> SemanticReport:
    """Model-summarising acyclicity via the summarised chase of the
    1-critical instance (every Skolem function collapsed to one
    constant; always terminates)."""
    tgds = [tgd for tgd in tgds if isinstance(tgd, TGD)]
    if not tgds:
        return SemanticReport(True, None, 0)
    key = ("msa", tuple(tgds), max_facts)
    hit = _cache.get(key)
    if hit is not None:
        return hit
    functions = skolem_functions(tgds)
    fn_names = {fn.name for fn in functions.values()}
    edges: set[tuple[str, str]] = set()

    def inventor(
        tgd: TGD, var: Var, assignment: Mapping[Var, object]
    ) -> object:
        fn = functions[(tgd, var.name)]
        for v in tgd.frontier:
            value = assignment[v]
            if isinstance(value, Const) and value.name in fn_names:
                edges.add((value.name, fn.name))
        return fn

    start = critical_instance(_tgd_schema(tgds), 1)
    with _telemetry_paused():
        result = chase(
            start,
            tgds,
            variant="oblivious",
            max_facts=max_facts,
            inventor=inventor,
        )
    if result.stop_reason == StopReason.FIXPOINT:
        nodes = sorted(fn_names)
        adjacency = {
            name: [t for s, t in sorted(edges) if s == name]
            for name in nodes
        }
        cycle = _find_cycle(nodes, adjacency)
        report = SemanticReport(
            cycle is None, cycle, result.rounds
        )
    else:  # budget exhausted: inconclusive, never certified
        report = SemanticReport(None, None, result.rounds)
    if TELEMETRY.enabled:
        TELEMETRY.count("analysis.msa_checks")
    _cache.put(key, report)
    return report


def is_msa(tgds: Sequence[TGD]) -> bool:
    return msa_report(tgds).acyclic is True


def is_mfa(tgds: Sequence[TGD]) -> bool:
    """MSA implies MFA, so the cheap always-terminating summarised
    check is tried first and the 2EXPTIME faithful chase only runs on
    its failures."""
    msa = msa_report(tgds)
    if msa.acyclic is True:
        return True
    return mfa_report(tgds).acyclic is True
