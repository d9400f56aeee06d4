"""The `repro.search` kernel: deciders and the search loop.

The load-bearing guarantees tested here:

* **sequential–parallel parity** — every outcome field except
  ``elapsed_seconds`` (and ``jobs``) is identical between ``jobs=1``
  and ``jobs>1``, including under budgets and early stops, for every
  chunk size (``kernel.CHUNK_SIZE`` is monkeypatched small so that
  tiny spaces cross chunk boundaries);
* **budgets degrade, never hang** — an exhausted run reports
  ``exhausted``; a budget landing exactly on the end of the space (or a
  chunk boundary) still reports ``complete``; under ``jobs>1`` workers
  decide at most one candidate past a candidate budget;
* **telemetry** — the kernel counts ``search.candidates`` /
  ``search.chunks`` / ``search.workers``, and worker counter deltas are
  merged back into the calling process.
"""

from __future__ import annotations

from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import Schema, parse_tgds
from repro.search import (
    EntailmentDecider,
    PredicateDecider,
    SearchBudget,
    SearchOutcome,
    ValidityDecider,
    Verdict,
    run_search,
)
from repro.instances.instance import Instance
from repro.search import kernel
from repro.telemetry import TELEMETRY, MemorySink


# ----------------------------------------------------------------------
# Module-level helpers (the parallel path pickles deciders)
# ----------------------------------------------------------------------


def _is_multiple_of_three(n: int) -> bool:
    return n % 3 == 0


def _is_even(n: int) -> bool:
    return n % 2 == 0


def _counted_even(n: int) -> bool:
    """``_is_even`` that counts its calls; worker counts merge back."""
    TELEMETRY.count("test.decisions")
    return n % 2 == 0


def _logged_zero(log: str, n: int) -> bool:
    """Accept only 0; count each decision and append it to ``log``, so
    a test can tell the work done from the work reported."""
    TELEMETRY.count("test.decisions")
    with open(log, "a") as handle:
        handle.write(f"{n}\n")
    return n == 0


def outcome_key(outcome: SearchOutcome) -> tuple:
    """Every field the determinism contract covers (not elapsed/jobs)."""
    return (
        outcome.accepted,
        outcome.unknown,
        outcome.rejected,
        outcome.considered,
        outcome.stop_reason,
    )


EVENS = PredicateDecider(_is_even)
THREES = PredicateDecider(_is_multiple_of_three)


@pytest.fixture
def chunk_size(monkeypatch):
    """Set the kernel's chunk size for the jobs>1 runs of one test."""

    def set_size(size: int) -> None:
        monkeypatch.setattr(kernel, "CHUNK_SIZE", size)

    return set_size


@pytest.fixture(autouse=True)
def clean_telemetry():
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


# ----------------------------------------------------------------------
# Deciders
# ----------------------------------------------------------------------


class TestDeciders:
    def test_predicate_decider(self):
        assert EVENS.decide(4) is Verdict.ACCEPT
        assert EVENS.decide(5) is Verdict.REJECT

    def test_entailment_decider_maps_tribool(self, unary_schema):
        sigma = tuple(parse_tgds("R(x) -> P(x)", unary_schema))
        decider = EntailmentDecider(premises=sigma)
        entailed, not_entailed = parse_tgds(
            "R(x) -> P(x)\nP(x) -> R(x)", unary_schema
        )
        assert decider.decide(entailed) is Verdict.ACCEPT
        assert decider.decide(not_entailed) is Verdict.REJECT

    def test_entailment_decider_unknown_on_tiny_round_budget(
        self, unary_schema
    ):
        sigma = tuple(
            parse_tgds("R(x) -> P(x)\nP(x) -> T(x)", unary_schema)
        )
        (candidate,) = parse_tgds("R(x) -> T(x)", unary_schema)
        decider = EntailmentDecider(premises=sigma, max_rounds=0)
        assert decider.decide(candidate) is Verdict.UNKNOWN

    def test_validity_decider(self, unary_schema):
        members = (
            Instance.parse("R(a). P(a)", unary_schema),
            Instance.parse("P(b)", unary_schema),
        )
        valid, invalid = parse_tgds(
            "R(x) -> P(x)\nP(x) -> R(x)", unary_schema
        )
        decider = ValidityDecider(members)
        assert decider.decide(valid) is Verdict.ACCEPT
        assert decider.decide(invalid) is Verdict.REJECT


# ----------------------------------------------------------------------
# Driver: reference semantics (jobs=1)
# ----------------------------------------------------------------------


class TestSequentialDriver:
    def test_collects_verdicts_in_order(self):
        outcome = run_search(range(10), EVENS)
        assert outcome.accepted == (0, 2, 4, 6, 8)
        assert outcome.rejected == 5
        assert outcome.considered == 10
        assert outcome.complete and not outcome.exhausted
        assert outcome.jobs == 1

    def test_candidate_budget_stops_and_resumes(self):
        first = run_search(
            range(10), EVENS, budget=SearchBudget(max_candidates=4)
        )
        assert first.exhausted
        assert first.stop_reason == "candidate-budget"
        assert first.considered == 4
        assert first.accepted == (0, 2)

    def test_budget_landing_on_the_end_is_not_exhaustion(self):
        outcome = run_search(
            range(10), EVENS, budget=SearchBudget(max_candidates=10)
        )
        assert outcome.complete
        assert outcome.considered == 10

    def test_zero_wall_clock_budget_degrades_immediately(self):
        outcome = run_search(
            range(10), EVENS, budget=SearchBudget(max_seconds=0)
        )
        assert outcome.stop_reason == "wall-clock-budget"
        assert outcome.exhausted
        assert outcome.considered == 0

    def test_stop_after_accepts_is_first_counterexample_mode(self):
        outcome = run_search(range(100), THREES, stop_after_accepts=1)
        assert outcome.accepted == (0,)
        assert outcome.considered == 1
        assert outcome.stop_reason == "accept-target"
        assert not outcome.exhausted  # an early stop is not a budget cut

    def test_observe_fires_in_stable_order(self):
        seen = []
        run_search(
            range(5),
            EVENS,
            observe=lambda cand, verdict: seen.append((cand, verdict)),
        )
        assert [c for c, _ in seen] == [0, 1, 2, 3, 4]
        assert seen[0][1] is Verdict.ACCEPT
        assert seen[1][1] is Verdict.REJECT

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(max_candidates=-1)
        with pytest.raises(ValueError):
            SearchBudget(max_seconds=-0.5)
        with pytest.raises(ValueError):
            run_search(range(1), EVENS, jobs=0)


# ----------------------------------------------------------------------
# Driver: parallel parity (jobs>1)
# ----------------------------------------------------------------------


class TestParallelParity:
    """jobs and the chunk size must be invisible in the outcome."""

    def test_plain_scan_parity(self, chunk_size):
        reference = run_search(range(50), EVENS)
        for size in (1, 7, 64):
            chunk_size(size)
            parallel = run_search(range(50), EVENS, jobs=2)
            assert outcome_key(parallel) == outcome_key(reference)
            assert parallel.jobs == 2

    def test_budget_parity_including_exact_cuts(self, chunk_size):
        chunk_size(5)
        for cap in (0, 5, 10, 19, 20, 21):
            budget = SearchBudget(max_candidates=cap)
            reference = run_search(range(20), EVENS, budget=budget)
            parallel = run_search(range(20), EVENS, jobs=2, budget=budget)
            assert outcome_key(parallel) == outcome_key(reference), cap
            # caps at 20 or above drain the 20-candidate space exactly
            assert reference.exhausted is (cap < 20)

    def test_budget_on_chunk_boundary_with_leftover_space(self, chunk_size):
        # the budget lands exactly on a chunk's end while undecided
        # candidates remain: still an exhaustion.
        chunk_size(5)
        outcome = run_search(
            range(20),
            EVENS,
            jobs=2,
            budget=SearchBudget(max_candidates=10),
        )
        assert outcome.exhausted
        assert outcome.considered == 10

    def test_workers_decide_at_most_one_past_the_budget(self):
        # Decisions are counted by the predicate itself, in whichever
        # process runs it; worker counts merge back per chunk.
        decider = PredicateDecider(_counted_even)
        for cap in (0, 10, 64, 100):
            TELEMETRY.reset()
            TELEMETRY.enable(MemorySink())
            outcome = run_search(
                range(500),
                decider,
                jobs=2,
                budget=SearchBudget(max_candidates=cap),
            )
            decided = TELEMETRY.snapshot().get("test.decisions", 0)
            TELEMETRY.disable()
            assert outcome.considered == cap
            assert outcome.exhausted
            assert decided <= cap + 1, (cap, decided)

    def test_early_stop_merges_every_decided_chunk(self, tmp_path):
        # Workers keep deciding the chunks in flight past the stop; the
        # counters must report each decision the log shows was made.
        log = tmp_path / "decided.log"
        decider = PredicateDecider(partial(_logged_zero, str(log)))
        TELEMETRY.enable(MemorySink())
        outcome = run_search(
            range(2000), decider, jobs=2, stop_after_accepts=1
        )
        merged = TELEMETRY.snapshot().get("test.decisions", 0)
        TELEMETRY.disable()
        assert outcome.accepted == (0,)
        decided = len(log.read_text().splitlines())
        assert decided >= kernel.CHUNK_SIZE
        assert merged == decided

    def test_stop_after_accepts_parity(self, chunk_size):
        chunk_size(4)
        reference = run_search(range(40), THREES, stop_after_accepts=3)
        parallel = run_search(
            range(40), THREES, jobs=2, stop_after_accepts=3
        )
        assert outcome_key(parallel) == outcome_key(reference)
        assert reference.accepted == (0, 3, 6)

    @given(
        size=st.integers(min_value=0, max_value=20),
        cap=st.none() | st.integers(min_value=0, max_value=22),
        chunk=st.integers(min_value=1, max_value=8),
        accepts=st.sampled_from([None, 1, 3]),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_jobs_never_change_the_outcome(self, size, cap, chunk, accepts):
        budget = SearchBudget(max_candidates=cap)
        reference = run_search(
            range(size), THREES, budget=budget, stop_after_accepts=accepts
        )
        with mock.patch.object(kernel, "CHUNK_SIZE", chunk):
            parallel = run_search(
                range(size),
                THREES,
                jobs=2,
                budget=budget,
                stop_after_accepts=accepts,
            )
        assert outcome_key(parallel) == outcome_key(reference)

    def test_unpicklable_decider_fails_fast(self):
        decider = PredicateDecider(lambda n: True)
        with pytest.raises(ValueError, match="picklable"):
            run_search(range(4), decider, jobs=2)
        # the sequential path has no such constraint
        outcome = run_search(range(4), decider)
        assert outcome.accepted == (0, 1, 2, 3)

    def test_entailment_decider_parity(self, unary_schema, chunk_size):
        sigma = tuple(
            parse_tgds("R(x) -> P(x)\nR(x), P(x) -> T(x)", unary_schema)
        )
        from repro.dependencies import enumerate_linear_tgds

        decider = EntailmentDecider(premises=sigma)
        reference = run_search(
            enumerate_linear_tgds(unary_schema, 1, 0), decider
        )
        chunk_size(2)
        parallel = run_search(
            enumerate_linear_tgds(unary_schema, 1, 0), decider, jobs=2
        )
        assert outcome_key(parallel) == outcome_key(reference)
        assert reference.accepted  # the E9 family has entailed candidates


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------


class TestSearchTelemetry:
    def test_sequential_counters(self):
        TELEMETRY.enable(MemorySink())
        run_search(range(9), EVENS)
        counters = TELEMETRY.snapshot()
        TELEMETRY.disable()
        assert counters["search.candidates"] == 9
        assert counters["search.workers"] == 1
        assert "search.chunks" not in counters  # no chunking in-process

    def test_parallel_counts_chunks_and_workers(self, chunk_size):
        chunk_size(4)
        TELEMETRY.enable(MemorySink())
        run_search(range(10), EVENS, jobs=2)
        counters = TELEMETRY.snapshot()
        TELEMETRY.disable()
        assert counters["search.candidates"] == 10
        assert counters["search.chunks"] == 3  # 4 + 4 + 2
        assert counters["search.workers"] == 2

    def test_worker_entailment_counters_merge_back(
        self, unary_schema, chunk_size
    ):
        sigma = tuple(parse_tgds("R(x) -> P(x)", unary_schema))
        from repro.dependencies import enumerate_linear_tgds

        chunk_size(2)
        TELEMETRY.enable(MemorySink())
        run_search(
            enumerate_linear_tgds(unary_schema, 1, 0),
            EntailmentDecider(premises=sigma),
            jobs=2,
        )
        counters = TELEMETRY.snapshot()
        TELEMETRY.disable()
        # the entailment checks ran in workers, yet their counters are
        # visible in the calling process
        assert counters.get("entailment.calls", 0) > 0

    def test_search_span_is_emitted(self):
        sink = MemorySink()
        TELEMETRY.enable(sink)
        run_search(range(3), EVENS)
        TELEMETRY.disable()
        (root,) = [s for s in sink.roots if s.name == "search"]
        assert root.attributes["considered"] == 3
        assert root.attributes["stop_reason"] == "drained"


# ----------------------------------------------------------------------
# Merged-telemetry parity on the paper's pinned scenarios
# ----------------------------------------------------------------------

# The paper scenarios the rewrite regression suite pins semantically:
# Example 9 (guarded, linearizable), Example 10 (frontier-guarded), and
# the Example 5.2 composition rule (full tgds).
_UNARY3 = Schema.of(("R", 1), ("P", 1), ("T", 1))
_BINARY3 = Schema.of(("R", 2), ("S", 2), ("T", 2))
_E9_RULES = "R(x) -> P(x)\nR(x), P(x) -> T(x)"
_E10_RULES = "R(x) -> P(x)\nR(x), P(y) -> T(x)"
_E52_RULES = "R(x, y), S(y, z) -> T(x, z)"

# Counters warmed by the process-local plan memo split differently
# between one process and four forked workers; search.workers/chunks
# describe the execution shape itself.  Everything else must merge back
# bit-identically — the analysis.* counters too, since the decider
# certifies its premises once, in the parent, before any worker starts.
_NOT_JOBS_INVARIANT = (
    "hom.plan_",
    "search.workers",
    "search.chunks",
)


def _invariant_counters(counters):
    return {
        name: value
        for name, value in counters.items()
        if not name.startswith(_NOT_JOBS_INVARIANT)
    }


def _invariant_histograms(histograms):
    # time.* histograms record wall clock — excluded by construction.
    return {
        name: hist.to_dict()
        for name, hist in histograms.items()
        if not name.startswith("time.")
    }


def _count_spans(roots, name):
    total = 0
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.name == name:
            total += 1
        stack.extend(node.children)
    return total


class TestMergedTelemetryParity:
    """--jobs N reports must be complete: counters, histograms, and
    span forests shipped back from workers make a jobs=4 run's
    telemetry bit-identical to jobs=1 (modulo wall clock and
    memoization warmth)."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, chunk_size):
        chunk_size(2)

    def _measure(self, schema, rules, enumerator_args, jobs):
        sigma = tuple(parse_tgds(rules, schema))
        enumerator, *args = enumerator_args
        # A body is chased once per run of its candidates, and no chunk
        # splits a run, so entailment.calls / chase counters do not
        # depend on which process saw a question first.
        decider = EntailmentDecider(premises=sigma)
        sink = MemorySink()
        TELEMETRY.disable()
        TELEMETRY.reset()
        TELEMETRY.enable(sink)
        outcome = run_search(enumerator(*args), decider, jobs=jobs)
        counters = TELEMETRY.snapshot()
        histograms = TELEMETRY.histogram_snapshot()
        TELEMETRY.disable()
        return outcome, counters, histograms, sink.roots

    def _assert_parity(self, schema, rules, enumerator_args):
        seq = self._measure(schema, rules, enumerator_args, jobs=1)
        par = self._measure(schema, rules, enumerator_args, jobs=4)
        assert outcome_key(par[0]) == outcome_key(seq[0])
        assert _invariant_counters(par[1]) == _invariant_counters(seq[1])
        assert _invariant_histograms(par[2]) == _invariant_histograms(
            seq[2]
        )
        return seq, par

    def test_e9_linear_candidates(self, unary_schema):
        from repro.dependencies import enumerate_linear_tgds

        seq, par = self._assert_parity(
            _UNARY3,
            _E9_RULES,
            (enumerate_linear_tgds, _UNARY3, 1, 0),
        )
        assert seq[0].accepted  # E9 entails linear candidates
        assert seq[1]["entailment.calls"] > 0

    def test_e10_frontier_guarded_candidates(self):
        from repro.dependencies import enumerate_linear_tgds

        self._assert_parity(
            _UNARY3,
            _E10_RULES,
            (enumerate_linear_tgds, _UNARY3, 1, 0),
        )

    def test_e52_full_tgd_candidates(self):
        from repro.dependencies import enumerate_full_tgds

        seq, par = self._assert_parity(
            _BINARY3,
            _E52_RULES,
            (enumerate_full_tgds, _BINARY3, 2),
        )
        # a multi-atom-body space: the probe-fanout histogram is
        # populated and merges exactly
        assert "hom.probe_fanout" in seq[2]

    def test_worker_span_forests_are_shipped_back(self):
        from repro.dependencies import enumerate_linear_tgds

        seq = self._measure(
            _UNARY3, _E9_RULES,
            (enumerate_linear_tgds, _UNARY3, 1, 0), jobs=1,
        )
        par = self._measure(
            _UNARY3, _E9_RULES,
            (enumerate_linear_tgds, _UNARY3, 1, 0), jobs=4,
        )
        seq_entails = _count_spans(seq[3], "entails")
        par_entails = _count_spans(par[3], "entails")
        assert seq_entails > 0
        assert par_entails == seq_entails
        # replayed worker spans hang off the coordinator's search span
        (root,) = [s for s in par[3] if s.name == "search"]
        assert _count_spans(root.children, "entails") == par_entails

    def test_chunk_duration_histogram_only_in_parallel_runs(self):
        from repro.dependencies import enumerate_linear_tgds

        seq = self._measure(
            _UNARY3, _E9_RULES,
            (enumerate_linear_tgds, _UNARY3, 1, 0), jobs=1,
        )
        par = self._measure(
            _UNARY3, _E9_RULES,
            (enumerate_linear_tgds, _UNARY3, 1, 0), jobs=4,
        )
        assert "time.search_chunk" not in seq[2]
        assert "time.search_chunk" in par[2]
        assert par[2]["time.search_chunk"].count == par[1]["search.chunks"]
