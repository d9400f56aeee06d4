"""The candidate-search kernel: one engine for Algorithms 1/2, the
Theorem 4.1/5.6 synthesis pipelines, and the characterization batteries.

All of them are the same shape — enumerate a finite fragment, decide
each candidate, collect the accepted ones — over spaces whose size is
the paper's own doubly-exponential counting bound, so candidate
*throughput* is the bottleneck.  :func:`run_search` provides:

* **a sequential reference path** (``jobs=1``): a plain in-process loop,
  kept forever as the semantics oracle;
* **a parallel path** (``jobs>1``): a ``ProcessPoolExecutor`` decides
  fixed-size chunks while the coordinator merges verdicts in submission
  order — results are *bit-identical* to the sequential path because
  acceptance, pruning, budgets, and early stops are all applied during
  the ordered merge, never inside workers;
* **budgets** that degrade to an ``exhausted`` outcome (callers map it
  to ``INCONCLUSIVE``) instead of hanging, with a ``next_cursor`` to
  resume from;
* **a subsumption-pruning hook** that skips candidates already covered
  by the accepted prefix.

Determinism contract: with a deterministic source and decider, every
field of the outcome except ``elapsed_seconds`` (and, under a
*wall-clock* budget, the stopping point) is a pure function of
``(source, decider, cursor, budget, prune, stop_after_accepts)`` —
independent of ``jobs`` and ``chunk_size``.

Telemetry: workers run a private telemetry instance and ship their
counter deltas (entailment calls, cache hits, chase rounds, …),
histogram deltas (probe fan-out, entailment latencies, chunk
durations), and span trees back with each chunk's verdicts; the
coordinator merges all three, so ``--profile``/``--trace`` output is
complete under ``jobs>1``.  The kernel itself counts
``search.candidates``, ``search.pruned``, ``search.chunks``, and
``search.workers``, and observes ``time.search_chunk`` per chunk.
Operation *counts* may differ between sequential and parallel runs
(workers decide candidates the ordered merge then prunes or
truncates); with per-candidate caching disabled in the decider, the
value-deterministic counters and histograms are jobs-invariant — see
``tests/test_search.py``.  The outcome never depends on ``jobs``.
"""

from __future__ import annotations

import itertools
import pickle
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..telemetry import (
    TELEMETRY,
    Histogram,
    MemorySink,
    Span,
    counter_delta,
    histogram_map_delta,
    span,
)
from .deciders import Decider, Verdict
from .source import CandidateSource, Cursor

__all__ = [
    "SearchBudget",
    "SearchOutcome",
    "run_search",
    "DEFAULT_CHUNK_SIZE",
]

DEFAULT_CHUNK_SIZE = 64

_PENDING = object()  # sentinel: the stream had at least one more candidate


@dataclass(frozen=True)
class SearchBudget:
    """Per-run limits.  ``max_candidates`` is deterministic (an exact
    cut in the stable order); ``max_seconds`` necessarily is not — it
    bounds wall-clock time, checked between decisions (sequential) or
    chunk merges (parallel), so runs stop *promptly after* rather than
    exactly at the limit."""

    max_candidates: int | None = None
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_candidates is not None and self.max_candidates < 0:
            raise ValueError("max_candidates must be >= 0")
        if self.max_seconds is not None and self.max_seconds < 0:
            raise ValueError("max_seconds must be >= 0")


@dataclass(frozen=True)
class SearchOutcome:
    """What a search run produced.

    ``considered = len(accepted) + len(unknown) + rejected + pruned``
    counts candidates consumed from the source in stable order;
    ``next_cursor`` points at the first unconsumed candidate, so
    ``run_search(..., cursor=outcome.next_cursor)`` resumes an
    exhausted run without repeating work.
    """

    accepted: tuple
    unknown: tuple
    rejected: int
    considered: int
    pruned: int
    stop_reason: str | None
    next_cursor: Cursor
    elapsed_seconds: float
    jobs: int

    @property
    def exhausted(self) -> bool:
        """Did a budget stop the run before the space was drained?"""
        return self.stop_reason in ("candidate-budget", "wall-clock-budget")

    @property
    def complete(self) -> bool:
        """Was the whole candidate space (from the cursor) decided?"""
        return self.stop_reason is None


class _Collector:
    """Ordered-merge state shared by the sequential and parallel paths.

    Every candidate flows through :meth:`gate` (budget check, with the
    candidate still unconsumed) then either :meth:`prune` or
    :meth:`record` — in stable source order on the coordinating process,
    which is what makes ``jobs`` invisible in the outcome.
    """

    def __init__(
        self,
        budget: SearchBudget | None,
        prune_hook,
        stop_after_accepts: int | None,
        observe,
        started: float,
    ) -> None:
        self.budget = budget or SearchBudget()
        self.prune_hook = prune_hook
        self.stop_after_accepts = stop_after_accepts
        self.observe = observe
        self.started = started
        self.accepted: list = []
        self.unknown: list = []
        self.rejected = 0
        self.considered = 0
        self.pruned = 0
        self.stop_reason: str | None = None

    def gate(self) -> bool:
        """May one more candidate be consumed?  Sets ``stop_reason`` and
        returns False once a budget blocks."""
        if (
            self.budget.max_candidates is not None
            and self.considered >= self.budget.max_candidates
        ):
            self.stop_reason = "candidate-budget"
            return False
        if (
            self.budget.max_seconds is not None
            and time.perf_counter() - self.started >= self.budget.max_seconds
        ):
            self.stop_reason = "wall-clock-budget"
            return False
        return True

    def should_prune(self, candidate) -> bool:
        """Consult the subsumption hook against the accepted prefix."""
        return self.prune_hook is not None and self.prune_hook(
            candidate, self.accepted
        )

    def prune(self, candidate) -> None:
        self.considered += 1
        self.pruned += 1
        if TELEMETRY.enabled:
            TELEMETRY.count("search.candidates")
            TELEMETRY.count("search.pruned")

    def record(self, candidate, verdict: Verdict) -> None:
        self.considered += 1
        if TELEMETRY.enabled:
            TELEMETRY.count("search.candidates")
        if verdict is Verdict.ACCEPT:
            self.accepted.append(candidate)
        elif verdict is Verdict.UNKNOWN:
            self.unknown.append(candidate)
        else:
            self.rejected += 1
        if self.observe is not None:
            self.observe(candidate, verdict)
        if (
            self.stop_after_accepts is not None
            and len(self.accepted) >= self.stop_after_accepts
        ):
            self.stop_reason = "accept-target"

    def outcome(self, cursor: Cursor, jobs: int) -> SearchOutcome:
        return SearchOutcome(
            accepted=tuple(self.accepted),
            unknown=tuple(self.unknown),
            rejected=self.rejected,
            considered=self.considered,
            pruned=self.pruned,
            stop_reason=self.stop_reason,
            next_cursor=cursor.advance(self.considered),
            elapsed_seconds=time.perf_counter() - self.started,
            jobs=jobs,
        )


# ----------------------------------------------------------------------
# Worker side (jobs > 1)
# ----------------------------------------------------------------------


_WORKER_SINK: MemorySink | None = None


def _worker_init(counters_enabled: bool, spans_enabled: bool) -> None:
    """Reset the telemetry singleton a forked worker inherited.

    Sinks belong to the parent (flushing them here would corrupt shared
    file handles), so they are detached without flushing; counters are
    re-enabled when the parent records them so worker-side operation
    counts can be merged back chunk by chunk.  When the parent also
    records spans, the worker collects its own span trees into a private
    :class:`MemorySink` and ships each chunk's roots back with the
    verdicts, so ``--profile``/``--trace`` see the whole forest under
    ``jobs > 1``.
    """
    global _WORKER_SINK
    TELEMETRY.sinks.clear()
    TELEMETRY.spans = False
    TELEMETRY.counters.clear()
    TELEMETRY.gauges.clear()
    TELEMETRY.histograms.clear()
    TELEMETRY.enabled = counters_enabled
    # A forked worker also inherits the parent's open-span stack (the
    # "search" span); without clearing it, worker spans would nest under
    # a span that closes in another process and never surface as roots.
    TELEMETRY.stack.clear()
    _WORKER_SINK = None
    if counters_enabled and spans_enabled:
        _WORKER_SINK = MemorySink()
        TELEMETRY.sinks.append(_WORKER_SINK)
        TELEMETRY.spans = True


def _decide_chunk(
    decider: Decider, items: Sequence
) -> tuple[list[Verdict], dict[str, int], dict[str, Histogram], tuple[Span, ...]]:
    """Decide one chunk; returns verdicts (in chunk order) plus the
    worker's telemetry deltas for merge-back: counter delta, histogram
    delta, and the span trees rooted during this chunk.

    Runs in a worker process whose module globals — the certificate
    and join-plan memos in particular — persist across the chunks it
    is handed, so each worker keeps its own memos warm.
    """
    enabled = TELEMETRY.enabled
    base = TELEMETRY.snapshot() if enabled else None
    hist_base = TELEMETRY.histogram_snapshot() if enabled else None
    sink = _WORKER_SINK
    roots_before = len(sink.roots) if sink is not None else 0
    chunk_started = time.perf_counter() if enabled else 0.0
    verdicts = [decider.decide(item) for item in items]
    if not enabled:
        return verdicts, {}, {}, ()
    TELEMETRY.observe(
        "time.search_chunk", time.perf_counter() - chunk_started
    )
    delta = counter_delta(base or {}, TELEMETRY.snapshot())
    hist_delta = histogram_map_delta(
        hist_base, TELEMETRY.histogram_snapshot()
    )
    roots = tuple(sink.roots[roots_before:]) if sink is not None else ()
    return verdicts, delta, hist_delta, roots


def _replay_worker_spans(roots: Sequence[Span]) -> None:
    """Graft span trees shipped back from a worker into the live trace.

    The trees are re-rooted under the coordinator's currently open span
    (the ``search`` span), their depths fixed up recursively, and every
    span re-emitted to the attached sinks in postorder — the same
    children-before-parents stream an in-process run would have
    produced, so ``repro stats`` and the tree renderer need no special
    case for parallel runs.
    """
    if not TELEMETRY.spans or not roots:
        return
    stack = TELEMETRY.stack
    parent = stack[-1] if stack else None
    base_depth = parent.depth + 1 if parent is not None else 0

    def fix_depth(sp: Span, depth: int) -> None:
        sp.depth = depth
        for child in sp.children:
            fix_depth(child, depth + 1)

    def emit(sp: Span) -> None:
        for child in sp.children:
            emit(child)
        TELEMETRY.emit_span(sp)

    for root in roots:
        fix_depth(root, base_depth)
        if parent is not None:
            parent.children.append(root)
        emit(root)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def run_search(
    source: CandidateSource,
    decider: Decider,
    *,
    jobs: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    cursor: Cursor = Cursor(),
    budget: SearchBudget | None = None,
    prune: Callable[[object, Sequence], bool] | None = None,
    stop_after_accepts: int | None = None,
    observe: Callable[[object, Verdict], None] | None = None,
) -> SearchOutcome:
    """Drive ``decider`` over ``source`` and collect the verdicts.

    ``prune(candidate, accepted_prefix)`` is consulted on the
    coordinating process before a candidate's verdict is used; a pruned
    candidate is counted but neither accepted nor reported unknown (in
    the parallel path its worker verdict is simply discarded, so pruning
    never changes the outcome between ``jobs`` settings).
    ``stop_after_accepts`` ends the run once that many candidates are
    accepted — the "first counterexample" mode of the property
    batteries.  ``observe(candidate, verdict)`` fires for every decided
    (non-pruned) candidate, in stable order, on the coordinating
    process.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    started = time.perf_counter()
    collector = _Collector(budget, prune, stop_after_accepts, observe, started)
    with span(
        "search",
        source=source.description,
        decider=type(decider).__name__,
        jobs=jobs,
    ) as sp:
        if TELEMETRY.enabled:
            TELEMETRY.count("search.workers", jobs)
        if jobs == 1:
            _run_sequential(source, decider, cursor, collector)
        else:
            _run_parallel(
                source, decider, cursor, collector, jobs, chunk_size
            )
        outcome = collector.outcome(cursor, jobs)
        sp.set(
            considered=outcome.considered,
            accepted=len(outcome.accepted),
            unknown=len(outcome.unknown),
            pruned=outcome.pruned,
            stop_reason=outcome.stop_reason or "drained",
        )
    return outcome


def _run_sequential(
    source: CandidateSource,
    decider: Decider,
    cursor: Cursor,
    collector: _Collector,
) -> None:
    """The in-process reference path."""
    for candidate in source.iterate(cursor):
        if not collector.gate():
            return
        if collector.should_prune(candidate):
            collector.prune(candidate)
            continue
        collector.record(candidate, decider.decide(candidate))
        if collector.stop_reason is not None:
            return


def _run_parallel(
    source: CandidateSource,
    decider: Decider,
    cursor: Cursor,
    collector: _Collector,
    jobs: int,
    chunk_size: int,
) -> None:
    """Chunked fan-out with an order-preserving merge.

    Chunks are submitted in stable order and merged strictly in
    submission order; the window of in-flight chunks keeps every worker
    busy without materializing the space.  Budget cuts and early stops
    happen at merge time, so later chunks' worker verdicts are discarded
    rather than reordered.
    """
    try:
        pickle.dumps(decider)
    except Exception as exc:
        raise ValueError(
            f"decider {type(decider).__name__} must be picklable for "
            f"jobs={jobs} (module-level classes over plain data; no "
            f"lambdas or closures): {exc}"
        ) from None
    stream = source.iterate(cursor)
    window = max(2 * jobs, 2)
    submitted = 0
    drained = False

    with ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_worker_init,
        initargs=(TELEMETRY.enabled, TELEMETRY.spans),
    ) as executor:

        def next_chunk() -> tuple | None:
            nonlocal submitted, drained
            if drained:
                return None
            cap = collector.budget.max_candidates
            if cap is not None and submitted >= cap:
                # Submitting past the candidate budget is pure waste;
                # the merge loop peeks the stream directly to tell an
                # exact cut from an exhausted one.
                return None
            items = tuple(itertools.islice(stream, chunk_size))
            if not items:
                drained = True
                return None
            submitted += len(items)
            return items

        pending: deque = deque()
        while len(pending) < window:
            items = next_chunk()
            if items is None:
                break
            pending.append((items, executor.submit(_decide_chunk, decider, items)))

        leftover = False  # a merged chunk had undecided candidates left
        while pending:
            items, future = pending.popleft()
            verdicts, delta, hist_delta, worker_roots = future.result()
            if TELEMETRY.enabled:
                TELEMETRY.count("search.chunks")
                for name, value in delta.items():
                    TELEMETRY.count(name, value)
                TELEMETRY.merge_histograms(hist_delta)
                _replay_worker_spans(worker_roots)
            for candidate, verdict in zip(items, verdicts):
                if not collector.gate():
                    # the gate blocked with this candidate undecided
                    leftover = True
                    break
                if collector.should_prune(candidate):
                    collector.prune(candidate)
                    continue
                collector.record(candidate, verdict)
                if collector.stop_reason is not None:
                    break
            if collector.stop_reason is not None:
                break
            refill = next_chunk()
            if refill is not None:
                pending.append(
                    (refill, executor.submit(_decide_chunk, decider, refill))
                )
        if collector.stop_reason in ("candidate-budget", "wall-clock-budget"):
            # A budget that lands exactly on the end of the space is not
            # an exhaustion: confirm at least one undecided candidate
            # remains (mid-chunk leftover, a pending chunk, or one peek
            # of the stream) before reporting the run as cut short.
            more = (
                leftover
                or bool(pending)
                or next(stream, _PENDING) is not _PENDING
            )
            if not more:
                collector.stop_reason = None
        elif collector.stop_reason is None and not drained:
            # Submission stopped at the candidate budget before the
            # stream confirmed empty; the merge then consumed every
            # submitted chunk without tripping the gate.  One peek
            # distinguishes an exact cut from a truncated space.
            if next(stream, _PENDING) is not _PENDING:
                collector.stop_reason = "candidate-budget"
        executor.shutdown(wait=True, cancel_futures=True)
