"""Outside-in layer tracing for the benchmark's traced run.

The traced run installs timing wrappers on named import sites — the
public functions the workloads call, and the module globals through
which one engine layer calls the next — without editing ``src/``.
Every wrapped call is a span; a layer's *self time* is its spans'
duration minus the part their child spans cover, so the self times of
all layers plus the time outside every span (``unattributed``) add up
to the phase's wall time.  Calls that return an iterator are timed
across their iteration: each resumption of the iterator is a span.

A target that no longer exists (renamed, moved or deleted by a later
change) is skipped and listed in ``missing``; a layer whose targets
are all missing is a *null layer* whose metrics read 0.

Spans stay in memory only when a Chrome trace is asked for
(``keep_spans``), and are written by :meth:`Tracer.write_chrome` when
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections.abc import Iterator
from pathlib import Path
from time import perf_counter

# (module, attribute path, layer).  The first group are the calls the
# workloads make directly; the second are import sites inside the
# engine, so a layer is timed where its caller reaches it.
TARGETS = (
    ("repro", "Instance.from_stream", "instances.ingest"),
    ("repro", "chase", "chase"),
    ("repro", "guarded_to_linear", "rewriting"),
    ("repro", "frontier_guarded_to_guarded", "rewriting"),
    ("repro", "rewrite_ucq", "omqa.rewrite"),
    ("repro", "UCQ.evaluate", "omqa.evaluate"),
    ("repro", "parse_tgds", "lang.parse"),
    ("repro", "parse_dependency", "lang.parse"),
    ("repro", "CQ.parse", "lang.parse"),
    ("repro.chase.engine", "all_extensions_of", "homomorphisms.join"),
    ("repro.chase.engine", "find_extension", "homomorphisms.join"),
    ("repro.chase.engine", "satisfies_atoms", "homomorphisms.activity"),
    ("repro.entailment.implication", "chase", "chase"),
    ("repro.entailment.implication", "default_budget", "analysis.budget"),
    ("repro.omqa.cq", "all_extensions_of", "homomorphisms.query"),
    ("repro.omqa.cq", "default_budget", "analysis.budget"),
    ("repro.rewriting.rewrite", "entails", "entailment"),
    ("repro.rewriting.rewrite", "entails_all", "entailment"),
    ("repro.rewriting.rewrite", "run_search", "search"),
    ("repro.search.deciders", "entails", "entailment"),
    ("repro.omqa.rewriting", "find_extension", "homomorphisms.subsume"),
)

# Self time per job of the measured loop: layer -> metric.  Parsing
# happens only in set-up, so ``lang.parse`` is reported there instead.
SELF_TIME = {
    "instances.ingest": "instances.ingest_s",
    "chase": "chase.self_s",
    "homomorphisms.join": "homomorphisms.join_s",
    "homomorphisms.activity": "homomorphisms.activity_s",
    "homomorphisms.subsume": "homomorphisms.subsume_s",
    "homomorphisms.query": "homomorphisms.query_s",
    "omqa.rewrite": "omqa.rewrite_s",
    "omqa.evaluate": "omqa.evaluate_s",
    "entailment": "entailment.self_s",
    "analysis.budget": "analysis.budget_s",
    "search": "search.self_s",
    "rewriting": "rewriting.self_s",
}
# Engine telemetry counters reported per job: metric -> counter.
COUNTERS = {
    "instances.ingest_batches": "ingest.batches",
    "chase.rounds": "chase.rounds",
    "chase.facts_added": "chase.facts_added",
    "chase.nulls_created": "chase.nulls_created",
    "chase.egd_merges": "chase.egd_merges",
    "chase.triggers_enumerated": "chase.triggers_enumerated",
    "chase.triggers_fired": "chase.triggers_fired",
    "homomorphisms.index_probes": "hom.index_probes",
    "homomorphisms.matches": "hom.matches",
    "homomorphisms.backtracks": "hom.backtracks",
    "homomorphisms.forward_prunes": "hom.forward_prunes",
    "homomorphisms.plan_compiles": "hom.plan_compiles",
    "homomorphisms.plan_hits": "hom.plan_hits",
    "homomorphisms.plan_evictions": "hom.plan_evictions",
    "entailment.calls": "entailment.calls",
    "analysis.certificates_computed": "analysis.certificates_computed",
    "analysis.certificate_cache_hits": "analysis.certificate_cache_hits",
    "search.candidates": "search.candidates",
    "dependencies.enumeration_candidates": "enumeration.candidates",
}

RATIOS = (
    "chase.fire_ratio", "homomorphisms.plan_hit_ratio",
    "entailment.cache_hit_ratio", "entailment.definitive_ratio",
    "dependencies.enumeration_useful_ratio", "rewriting.entailed_ratio",
    "trace.overhead_ratio",
)
PER_JOB_COUNTS = (
    *COUNTERS, "chase.calls",
    "omqa.disjuncts_generated", "omqa.disjuncts_subsumed",
)
# Every per-layer metric with its unit.  Loop metrics are per job;
# ``lang.parse_s`` and ``instances.setup_ingest_s`` are set-up totals.
PER_LAYER = (
    [(name, "s/job") for name in SELF_TIME.values()]
    + [(name, "1/job") for name in PER_JOB_COUNTS]
    + [(name, "ratio") for name in RATIOS]
    + [
        ("instances.ingest_facts_per_s", "facts/s"),
        ("trace.job_s", "s/job"),
        ("trace.unattributed_s", "s/job"),
        ("trace.missing_targets", "count"),
        ("lang.parse_s", "s"),
        ("instances.setup_ingest_s", "s"),
    ]
)

_ALL = ("rollup", "keys-egd", "rewrite-mix", "omqa-query")
_LATENCY = ("jobs_per_s", "job_p50_ms", "job_p90_ms")
# Every per-layer metric once: (metrics, the end-to-end metrics they
# should move, the workloads where they read nonzero, the workloads that
# bypass them and where they read 0).  ``test_bench.py`` checks the last
# two on traced runs; README.md gives the measured shares.
MOVES = (
    (("instances.ingest_s", "instances.ingest_batches",
      "instances.ingest_facts_per_s"),
     ("jobs_per_s", "peak_rss_mb"), ("rollup", "keys-egd"),
     ("rewrite-mix", "omqa-query")),
    (("instances.setup_ingest_s",), ("setup_s",), ("omqa-query",),
     ("rollup", "keys-egd", "rewrite-mix")),
    (("chase.self_s", "chase.calls", "chase.rounds", "chase.facts_added",
      "chase.triggers_enumerated", "chase.triggers_fired",
      "chase.fire_ratio", "homomorphisms.join_s",
      "homomorphisms.activity_s"),
     _LATENCY, ("rollup", "keys-egd", "rewrite-mix"), ("omqa-query",)),
    (("chase.nulls_created", "chase.egd_merges"), _LATENCY,
     ("keys-egd",), ("rollup", "omqa-query")),
    (("homomorphisms.index_probes",), _LATENCY,
     ("rollup", "keys-egd", "omqa-query"), ()),
    (("homomorphisms.matches", "homomorphisms.backtracks",
      "homomorphisms.forward_prunes", "homomorphisms.plan_compiles",
      "homomorphisms.plan_hits", "homomorphisms.plan_hit_ratio"),
     _LATENCY, _ALL, ()),
    # The plan cache fills only at full scale (not in --smoke runs).
    (("homomorphisms.plan_evictions",), _LATENCY, ("omqa-query",),
     ("rollup", "keys-egd")),
    (("homomorphisms.subsume_s", "homomorphisms.query_s",
      "omqa.rewrite_s", "omqa.evaluate_s", "omqa.disjuncts_generated",
      "omqa.disjuncts_subsumed"),
     _LATENCY, ("omqa-query",), ("rollup", "keys-egd", "rewrite-mix")),
    (("entailment.self_s", "entailment.calls",
      "entailment.definitive_ratio", "analysis.budget_s",
      "analysis.certificates_computed", "analysis.certificate_cache_hits",
      "search.self_s", "search.candidates",
      "dependencies.enumeration_candidates",
      "dependencies.enumeration_useful_ratio", "rewriting.self_s",
      "rewriting.entailed_ratio"),
     _LATENCY, ("rewrite-mix",), ("rollup", "keys-egd", "omqa-query")),
    # Near 0 in rewrite-mix too: its memo keys are not renaming-invariant.
    (("entailment.cache_hit_ratio",), _LATENCY, (),
     ("rollup", "keys-egd", "omqa-query")),
    # rewrite-mix parses each job's rules outside set-up.
    (("lang.parse_s",), ("setup_s",), ("rollup", "keys-egd", "omqa-query"),
     ()),
    (("trace.job_s", "trace.overhead_ratio"), (), _ALL, ()),
    (("trace.unattributed_s",), (), (), ()),
    (("trace.missing_targets",), (), (), _ALL),
)


class Phase:
    """Span totals of one phase of the run (set-up, or the loop's jobs),
    and its wall time summed over the intervals it was open."""

    __slots__ = ("wall", "self_s", "calls", "events")

    def __init__(self) -> None:
        self.wall = 0.0
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.events = 0

    def unattributed(self) -> float:
        return self.wall - sum(self.self_s.values())


class Tracer:
    """Installs the wrappers and keeps span totals per phase: a
    ``setup`` phase, and a ``loop`` phase opened around each job.
    :meth:`begin` opens a phase (again) and :meth:`end` closes it;
    spans made while no phase is open count for none.  ``keep_spans``
    caps the spans kept for the Chrome trace (0 keeps none)."""

    def __init__(self, targets=TARGETS, keep_spans: int = 0) -> None:
        self.targets = targets
        self.keep_spans = keep_spans
        self.spans: list[tuple[str, float, float]] = []
        self.dropped_spans = 0
        self.missing: list[str] = []
        self.phases: dict[str, Phase] = {}
        self.event_cost = 0.0
        self._installed: list[tuple[object, str, object]] = []
        self._outside = self._phase = Phase()
        self._opened = 0.0
        self._stack = [0.0]

    # -- wrappers -----------------------------------------------------

    def _leave(self, layer: str, start: float) -> None:
        end = perf_counter()
        stack = self._stack
        child = stack.pop()
        duration = end - start
        stack[-1] += duration
        phase = self._phase
        phase.self_s[layer] = phase.self_s.get(layer, 0.0) + duration - child
        phase.events += 1
        if self.keep_spans:
            if len(self.spans) < self.keep_spans:
                self.spans.append((layer, start, end))
            else:
                self.dropped_spans += 1

    def _count(self, layer: str) -> None:
        calls = self._phase.calls
        calls[layer] = calls.get(layer, 0) + 1

    def _iterate(self, layer: str, iterator):
        stack = self._stack
        try:
            while True:
                stack.append(0.0)
                start = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._leave(layer, start)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def wrap(self, raw, layer: str):
        """A timing wrapper of a function, classmethod or staticmethod;
        an iterator it returns is timed across its iteration too."""
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self.wrap(raw.__func__, layer))
        if not callable(raw):
            raise TypeError(f"{raw!r} is not callable")
        stack = self._stack

        def wrapper(*args, **kwargs):
            self._count(layer)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = raw(*args, **kwargs)
            finally:
                self._leave(layer, start)
            if isinstance(result, Iterator):
                return self._iterate(layer, result)
            return result

        return functools.update_wrapper(wrapper, raw)

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for module, path, layer in self.targets:
            try:
                owner = importlib.import_module(module)
                *parents, name = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, name)
                wrapped = self.wrap(raw, layer)
            except (ImportError, AttributeError, TypeError):
                self.missing.append(f"{module}:{path}")
                continue
            setattr(owner, name, wrapped)
            self._installed.append((owner, name, raw))
        self.event_cost = self._calibrate()

    def uninstall(self) -> None:
        while self._installed:
            owner, name, raw = self._installed.pop()
            setattr(owner, name, raw)

    def null_layers(self) -> list[str]:
        installed = {
            layer for module, path, layer in self.targets
            if f"{module}:{path}" not in self.missing
        }
        return sorted({layer for *_, layer in self.targets} - installed)

    def _calibrate(self, rounds: int = 20000) -> float:
        """Seconds one wrapped call adds, measured on a no-op."""
        def noop():
            return None

        wrapped = self.wrap(noop, "calibration")
        saved = self._phase, self.keep_spans
        self._phase, self.keep_spans = Phase(), 0
        started = perf_counter()
        for __ in range(rounds):
            noop()
        bare = perf_counter() - started
        started = perf_counter()
        for __ in range(rounds):
            wrapped()
        traced = perf_counter() - started
        self._phase, self.keep_spans = saved
        return max(0.0, (traced - bare) / rounds)

    # -- phases -------------------------------------------------------

    def begin(self, name: str) -> None:
        self._phase = self.phases.setdefault(name, Phase())
        self._stack[:] = [0.0]
        self._opened = perf_counter()

    def end(self) -> None:
        self._phase.wall += perf_counter() - self._opened
        self._phase = self._outside

    def write_chrome(self, path: Path) -> None:
        """The kept spans as Chrome trace events (``X`` events, with
        the enclosing span's index as ``args.parent``)."""
        order = sorted(
            range(len(self.spans)),
            key=lambda i: (self.spans[i][1], -self.spans[i][2]),
        )
        events, open_spans = [], []
        for index in order:
            layer, start, end = self.spans[index]
            while open_spans and self.spans[open_spans[-1]][2] < end:
                open_spans.pop()
            events.append({
                "name": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {
                    "id": index,
                    "parent": open_spans[-1] if open_spans else None,
                },
            })
            open_spans.append(index)
        payload = {
            "traceEvents": events,
            "otherData": {
                "dropped_spans": self.dropped_spans,
                "missing_targets": self.missing,
            },
        }
        path.write_text(json.dumps(payload))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    tracer: Tracer,
    counters: dict[str, int],
    extra: dict[str, int],
    jobs: int,
) -> dict[str, float]:
    """Every metric of :data:`PER_LAYER` from the traced run: the loop
    phase's span totals and engine counter deltas (per job), plus the
    set-up phase's parse and ingest totals."""
    loop = tracer.phases.get("loop", Phase())
    setup = tracer.phases.get("setup", Phase())
    per_job = 1 / jobs
    values: dict[str, float] = {}
    for layer, name in SELF_TIME.items():
        values[name] = loop.self_s.get(layer, 0.0) * per_job
    for name, counter in COUNTERS.items():
        values[name] = counters.get(counter, 0) * per_job
    for name, count in extra.items():
        values[name] = count * per_job
    values["chase.calls"] = loop.calls.get("chase", 0) * per_job
    values.setdefault("omqa.disjuncts_generated", 0.0)
    values.setdefault("omqa.disjuncts_subsumed", 0.0)
    ingest_s = loop.self_s.get("instances.ingest", 0.0)
    values["instances.ingest_facts_per_s"] = _ratio(
        counters.get("ingest.facts", 0), ingest_s
    )
    values["chase.fire_ratio"] = _ratio(
        counters.get("chase.triggers_fired", 0),
        counters.get("chase.triggers_enumerated", 0),
    )
    hits = counters.get("hom.plan_hits", 0)
    values["homomorphisms.plan_hit_ratio"] = _ratio(
        hits, hits + counters.get("hom.plan_compiles", 0)
    )
    cache_hits = counters.get("entailment.cache_hits", 0)
    values["entailment.cache_hit_ratio"] = _ratio(
        cache_hits, cache_hits + counters.get("entailment.cache_misses", 0)
    )
    values["entailment.definitive_ratio"] = _ratio(
        counters.get("entailment.true", 0)
        + counters.get("entailment.false", 0),
        counters.get("entailment.calls", 0),
    )
    useful = counters.get("enumeration.candidates", 0)
    values["dependencies.enumeration_useful_ratio"] = _ratio(
        useful, useful + counters.get("enumeration.duplicates", 0)
    )
    values["rewriting.entailed_ratio"] = _ratio(
        counters.get("rewrite.candidates_entailed", 0),
        counters.get("rewrite.candidates_considered", 0),
    )
    values["trace.job_s"] = loop.wall * per_job
    values["trace.unattributed_s"] = loop.unattributed() * per_job
    values["trace.overhead_ratio"] = _ratio(
        loop.events * tracer.event_cost, loop.wall
    )
    values["trace.missing_targets"] = float(len(tracer.missing))
    values["lang.parse_s"] = setup.self_s.get("lang.parse", 0.0)
    values["instances.setup_ingest_s"] = setup.self_s.get(
        "instances.ingest", 0.0
    )
    return values
