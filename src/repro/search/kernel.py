"""The candidate-search kernel: one engine for Algorithms 1/2, the
Theorem 4.1/5.6 synthesis pipelines, and the characterization batteries.

All of them are the same shape — enumerate a finite fragment, decide
each candidate, collect the accepted ones — over spaces whose size is
the paper's own doubly-exponential counting bound, so candidate
*throughput* is the bottleneck.  :func:`run_search` is one loop over
``(candidate, verdict)`` pairs in the candidates' own order: gate
(budgets), decide, record.  Where the verdicts come from is the only
thing ``jobs`` changes:

* ``jobs=1`` — the loop decides each candidate in-process, after the
  gate, so a budget never pays for a decision it then discards;
* ``jobs>1`` — a generator decides chunks of at least ``CHUNK_SIZE``
  candidates on a ``ProcessPoolExecutor``, at most ``2·jobs`` chunks in
  flight, and yields their verdicts in submission order to the same
  loop.  A decider with a ``share_key(candidate)`` method decides runs
  of candidates with equal keys from shared work (the
  :class:`~repro.search.deciders.EntailmentDecider` chases each body
  once), so a chunk never ends inside such a run.

Budgets degrade to an ``exhausted`` outcome (callers map it to
``INCONCLUSIVE``) instead of hanging.  The gate runs only once a next
candidate exists, so a budget that lands exactly on the end of the
space reports ``complete``; a candidate budget of ``k`` slices the
input to ``k + 1`` candidates, so workers never decide more than one
candidate past the cut.

Determinism contract: with deterministic candidates and decider, every
field of the outcome except ``elapsed_seconds`` and ``jobs`` (and,
under a *wall-clock* budget, the stopping point) is a pure function of
``(candidates, decider, budget, stop_after_accepts)`` — independent of
``jobs``.

Telemetry: workers run a private telemetry instance and ship their
counter deltas (entailment calls, chase rounds, …), histogram deltas
(probe fan-out, entailment latencies, chunk durations), and span trees
back with each chunk's verdicts; the loop merges all three, so
``--profile``/``--trace`` output is complete under ``jobs>1``.  The
kernel itself counts ``search.candidates``, ``search.chunks`` and
``search.workers``, and observes ``time.search_chunk`` per chunk.
Workers may decide up to ``2·jobs`` chunks past an early stop, and
the telemetry of every chunk they finished is merged when the run
closes, so operation counts can differ from a ``jobs=1`` run that
stops early; for a drained space, the value-deterministic counters and
histograms are jobs-invariant — see ``tests/test_search.py``.
"""

from __future__ import annotations

import itertools
import pickle
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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

__all__ = [
    "SearchBudget",
    "SearchOutcome",
    "run_search",
]

CHUNK_SIZE = 64  # minimum candidates per worker task under jobs > 1


@dataclass(frozen=True)
class SearchBudget:
    """Per-run limits.  ``max_candidates`` is deterministic (an exact
    cut in the stable order); ``max_seconds`` necessarily is not — it
    bounds wall-clock time, checked before each candidate is recorded,
    so runs stop *promptly after* rather than exactly at the limit."""

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

    ``considered = len(accepted) + len(unknown) + rejected`` counts the
    candidates decided, in the candidates' order.
    """

    accepted: tuple
    unknown: tuple
    rejected: int
    considered: int
    stop_reason: str | None
    elapsed_seconds: float
    jobs: int

    @property
    def exhausted(self) -> bool:
        """Did a budget stop the run before the space was drained?"""
        return self.stop_reason in ("candidate-budget", "wall-clock-budget")

    @property
    def complete(self) -> bool:
        """Was the whole candidate space decided?"""
        return self.stop_reason is None


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


def _merge_chunk_telemetry(
    delta: dict[str, int],
    hist_delta: dict[str, Histogram],
    worker_roots: tuple[Span, ...],
) -> None:
    """Merge one decided chunk's worker telemetry into this process."""
    if TELEMETRY.enabled:
        TELEMETRY.count("search.chunks")
        for name, value in delta.items():
            TELEMETRY.count(name, value)
        TELEMETRY.merge_histograms(hist_delta)
        _replay_worker_spans(worker_roots)


def _chunks(
    stream: Iterator, share_key: Callable[[object], object] | None
) -> Iterator[tuple]:
    """Cut ``stream`` into chunks of ``CHUNK_SIZE`` candidates (the last
    may be shorter).  With a decider's ``share_key``, a chunk grows past
    ``CHUNK_SIZE`` until the key changes, so a run of candidates with
    equal keys — decided from one shared chase — never straddles two
    workers."""
    if share_key is None:
        while items := tuple(itertools.islice(stream, CHUNK_SIZE)):
            yield items
        return
    items = list(itertools.islice(stream, CHUNK_SIZE))
    while items:
        key = share_key(items[-1])
        for candidate in stream:
            if share_key(candidate) != key:
                yield tuple(items)
                items = [candidate]
                items.extend(itertools.islice(stream, CHUNK_SIZE - 1))
                break
            items.append(candidate)
        else:
            yield tuple(items)
            return


def _decide_in_pool(
    stream: Iterator, decider: Decider, jobs: int
) -> Iterator[tuple[object, Verdict]]:
    """Yield ``(candidate, verdict)`` in stream order, deciding the
    :func:`_chunks` of the stream on ``jobs`` worker processes with up to
    ``2·jobs`` chunks in flight.  Closing the generator cancels the
    chunks not yet started and shuts the pool down; the telemetry of
    every chunk that was decided all the same is merged then, so the
    counters account for all the work the workers did."""
    try:
        pickle.dumps(decider)
    except Exception as exc:
        raise ValueError(
            f"decider {type(decider).__name__} must be picklable for "
            f"jobs={jobs} (module-level classes over plain data; no "
            f"lambdas or closures): {exc}"
        ) from None
    executor = ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_worker_init,
        initargs=(TELEMETRY.enabled, TELEMETRY.spans),
    )
    chunks = _chunks(stream, getattr(decider, "share_key", None))
    pending: deque = deque()
    try:
        while True:
            while len(pending) < 2 * jobs:
                items = next(chunks, None)
                if items is None:
                    break
                pending.append(
                    (items, executor.submit(_decide_chunk, decider, items))
                )
            if not pending:
                return
            items, future = pending.popleft()
            verdicts, delta, hist_delta, worker_roots = future.result()
            _merge_chunk_telemetry(delta, hist_delta, worker_roots)
            yield from zip(items, verdicts)
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
        for __, future in pending:
            if not future.cancelled() and future.exception() is None:
                __, delta, hist_delta, worker_roots = future.result()
                _merge_chunk_telemetry(delta, hist_delta, worker_roots)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def run_search(
    candidates: Iterable,
    decider: Decider,
    *,
    jobs: int = 1,
    budget: SearchBudget | None = None,
    stop_after_accepts: int | None = None,
    observe: Callable[[object, Verdict], None] | None = None,
) -> SearchOutcome:
    """Drive ``decider`` over ``candidates`` and collect the verdicts.

    ``candidates`` is consumed once, in order; pass a fresh generator
    (e.g. ``enumerate_linear_tgds(schema, n, m)``) per run.
    ``stop_after_accepts`` ends the run once that many candidates are
    accepted — the "first counterexample" mode of the property
    batteries.  ``observe(candidate, verdict)`` fires for every decided
    candidate, in order, on the calling process.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    budget = budget or SearchBudget()
    started = time.perf_counter()
    stream = iter(candidates)
    if budget.max_candidates is not None:
        # the pool decides at most one candidate past the cut, which the
        # gate needs to tell an exhausted space from an exact one
        stream = itertools.islice(stream, budget.max_candidates + 1)
    if jobs == 1:
        # no verdict yet: the loop decides each candidate after the gate
        pairs = ((candidate, None) for candidate in stream)
    else:
        pairs = _decide_in_pool(stream, decider, jobs)
    accepted: list = []
    unknown: list = []
    rejected = considered = 0
    stop_reason: str | None = None
    with span("search", decider=type(decider).__name__, jobs=jobs) as sp:
        if TELEMETRY.enabled:
            TELEMETRY.count("search.workers", jobs)
        try:
            for candidate, verdict in pairs:
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
                if verdict is None:
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
        finally:
            pairs.close()
        outcome = SearchOutcome(
            accepted=tuple(accepted),
            unknown=tuple(unknown),
            rejected=rejected,
            considered=considered,
            stop_reason=stop_reason,
            elapsed_seconds=time.perf_counter() - started,
            jobs=jobs,
        )
        sp.set(
            considered=outcome.considered,
            accepted=len(outcome.accepted),
            unknown=len(outcome.unknown),
            stop_reason=stop_reason or "drained",
        )
    return outcome
