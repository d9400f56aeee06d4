"""The `repro.search` kernel: sources, deciders, and the driver.

The load-bearing guarantees tested here:

* **stable ordering / explicit cursors** — a source traverses
  identically every time; chunks partition the stream; a cursor resumes
  exactly where a previous run stopped;
* **sequential–parallel parity** — every outcome field except
  ``elapsed_seconds`` (and ``jobs``) is identical between ``jobs=1``
  and ``jobs>1``, including under budgets, pruning, and early stops;
* **budgets degrade, never hang** — an exhausted run reports
  ``exhausted`` with a usable ``next_cursor``; a budget landing exactly
  on the end of the space (or a chunk boundary) still reports
  ``complete``;
* **telemetry** — the kernel counts ``search.candidates`` /
  ``search.chunks`` / ``search.pruned`` / ``search.workers``, and worker
  counter deltas are merged back into the coordinator.
"""

from __future__ import annotations

import pytest

from repro import Schema, parse_tgds
from repro.search import (
    CandidateSource,
    Cursor,
    EntailmentDecider,
    PredicateDecider,
    SearchBudget,
    SearchOutcome,
    ValidityDecider,
    Verdict,
    run_search,
)
from repro.instances.instance import Instance
from repro.telemetry import TELEMETRY, MemorySink


# ----------------------------------------------------------------------
# Module-level helpers (the parallel path pickles deciders and hooks)
# ----------------------------------------------------------------------


def _is_multiple_of_three(n: int) -> bool:
    return n % 3 == 0


def _is_even(n: int) -> bool:
    return n % 2 == 0


def _numbers(limit: int):
    return iter(range(limit))


def _prune_same_parity(candidate: int, accepted) -> bool:
    """Prune candidates sharing parity with an already-accepted one."""
    return any(candidate % 2 == kept % 2 for kept in accepted)


def outcome_key(outcome: SearchOutcome) -> tuple:
    """Every field the determinism contract covers (not elapsed/jobs)."""
    return (
        outcome.accepted,
        outcome.unknown,
        outcome.rejected,
        outcome.considered,
        outcome.pruned,
        outcome.stop_reason,
        outcome.next_cursor,
    )


EVENS = PredicateDecider(_is_even)
THREES = PredicateDecider(_is_multiple_of_three)


@pytest.fixture(autouse=True)
def clean_telemetry():
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------


class TestCandidateSource:
    def test_enumerator_source_is_retraversable(self):
        source = CandidateSource.from_enumerator(_numbers, 7)
        assert list(source.iterate()) == list(range(7))
        assert list(source.iterate()) == list(range(7))
        assert source.description == "_numbers"

    def test_cursor_offsets_into_the_stable_order(self):
        source = CandidateSource.from_enumerator(_numbers, 10)
        assert list(source.iterate(Cursor(4))) == [4, 5, 6, 7, 8, 9]
        assert list(source.iterate(Cursor(10))) == []

    def test_chunks_partition_the_stream(self):
        source = CandidateSource.from_enumerator(_numbers, 10)
        chunks = list(source.chunks(4))
        assert [c.items for c in chunks] == [
            (0, 1, 2, 3), (4, 5, 6, 7), (8, 9)
        ]
        assert [c.index for c in chunks] == [0, 1, 2]
        assert [c.start.offset for c in chunks] == [0, 4, 8]
        # a chunk is self-describing for resumption
        assert chunks[1].start.advance(len(chunks[1])) == Cursor(8)

    def test_chunks_respect_the_cursor(self):
        source = CandidateSource.from_enumerator(_numbers, 6)
        chunks = list(source.chunks(4, Cursor(3)))
        assert [c.items for c in chunks] == [(3, 4, 5)]
        assert chunks[0].start == Cursor(3)

    def test_chunk_size_must_be_positive(self):
        source = CandidateSource.from_enumerator(_numbers, 3)
        with pytest.raises(ValueError):
            list(source.chunks(0))

    def test_from_iterable_wraps_a_sequence(self):
        source = CandidateSource.from_iterable(
            ["a", "b", "c"], description="letters"
        )
        assert list(source.iterate()) == ["a", "b", "c"]
        assert "letters" in repr(source)


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
        outcome = run_search(
            CandidateSource.from_enumerator(_numbers, 10), EVENS
        )
        assert outcome.accepted == (0, 2, 4, 6, 8)
        assert outcome.rejected == 5
        assert outcome.considered == 10
        assert outcome.complete and not outcome.exhausted
        assert outcome.next_cursor == Cursor(10)
        assert outcome.jobs == 1

    def test_candidate_budget_stops_and_resumes(self):
        source = CandidateSource.from_enumerator(_numbers, 10)
        first = run_search(
            source, EVENS, budget=SearchBudget(max_candidates=4)
        )
        assert first.exhausted
        assert first.stop_reason == "candidate-budget"
        assert first.considered == 4
        assert first.accepted == (0, 2)
        rest = run_search(source, EVENS, cursor=first.next_cursor)
        assert rest.complete
        assert first.accepted + rest.accepted == (0, 2, 4, 6, 8)

    def test_budget_landing_on_the_end_is_not_exhaustion(self):
        outcome = run_search(
            CandidateSource.from_enumerator(_numbers, 10),
            EVENS,
            budget=SearchBudget(max_candidates=10),
        )
        assert outcome.complete
        assert outcome.considered == 10

    def test_zero_wall_clock_budget_degrades_immediately(self):
        outcome = run_search(
            CandidateSource.from_enumerator(_numbers, 10),
            EVENS,
            budget=SearchBudget(max_seconds=0),
        )
        assert outcome.stop_reason == "wall-clock-budget"
        assert outcome.exhausted
        assert outcome.considered == 0
        assert outcome.next_cursor == Cursor(0)

    def test_stop_after_accepts_is_first_counterexample_mode(self):
        outcome = run_search(
            CandidateSource.from_enumerator(_numbers, 100),
            THREES,
            stop_after_accepts=1,
        )
        assert outcome.accepted == (0,)
        assert outcome.considered == 1
        assert outcome.stop_reason == "accept-target"
        assert not outcome.exhausted  # an early stop is not a budget cut

    def test_prune_hook_skips_deciding(self):
        outcome = run_search(
            CandidateSource.from_enumerator(_numbers, 6),
            EVENS,
            prune=_prune_same_parity,
        )
        # 0 accepted; 1 rejected; 2 pruned (even, like accepted 0);
        # 3 rejected; 4 pruned; 5 rejected.
        assert outcome.accepted == (0,)
        assert outcome.pruned == 2
        assert outcome.rejected == 3
        assert outcome.considered == 6

    def test_observe_fires_in_stable_order(self):
        seen = []
        run_search(
            CandidateSource.from_enumerator(_numbers, 5),
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
            run_search(
                CandidateSource.from_enumerator(_numbers, 1), EVENS, jobs=0
            )


# ----------------------------------------------------------------------
# Driver: parallel parity (jobs>1)
# ----------------------------------------------------------------------


class TestParallelParity:
    """jobs and chunk_size must be invisible in the outcome."""

    def test_plain_scan_parity(self):
        source = CandidateSource.from_enumerator(_numbers, 50)
        reference = run_search(source, EVENS)
        for chunk_size in (1, 7, 64):
            parallel = run_search(
                source, EVENS, jobs=2, chunk_size=chunk_size
            )
            assert outcome_key(parallel) == outcome_key(reference)
            assert parallel.jobs == 2

    def test_budget_parity_including_exact_cuts(self):
        source = CandidateSource.from_enumerator(_numbers, 20)
        for cap in (0, 5, 10, 19, 20, 21):
            budget = SearchBudget(max_candidates=cap)
            reference = run_search(source, EVENS, budget=budget)
            parallel = run_search(
                source, EVENS, jobs=2, chunk_size=5, budget=budget
            )
            assert outcome_key(parallel) == outcome_key(reference), cap
            # caps at 20 or above drain the 20-candidate space exactly
            assert reference.exhausted is (cap < 20)

    def test_budget_on_chunk_boundary_with_leftover_space(self):
        # the budget lands exactly on the last submitted chunk's end
        # while unsubmitted candidates remain: still an exhaustion.
        outcome = run_search(
            CandidateSource.from_enumerator(_numbers, 20),
            EVENS,
            jobs=2,
            chunk_size=5,
            budget=SearchBudget(max_candidates=10),
        )
        assert outcome.exhausted
        assert outcome.considered == 10
        assert outcome.next_cursor == Cursor(10)

    def test_resume_parity(self):
        source = CandidateSource.from_enumerator(_numbers, 30)
        budget = SearchBudget(max_candidates=11)
        seq = run_search(source, EVENS, budget=budget)
        par = run_search(source, EVENS, jobs=2, chunk_size=4, budget=budget)
        assert outcome_key(par) == outcome_key(seq)
        seq_rest = run_search(source, EVENS, cursor=seq.next_cursor)
        par_rest = run_search(
            source, EVENS, jobs=2, chunk_size=4, cursor=par.next_cursor
        )
        assert outcome_key(par_rest) == outcome_key(seq_rest)
        assert seq.accepted + seq_rest.accepted == run_search(
            source, EVENS
        ).accepted

    def test_prune_parity(self):
        source = CandidateSource.from_enumerator(_numbers, 12)
        reference = run_search(source, EVENS, prune=_prune_same_parity)
        parallel = run_search(
            source, EVENS, jobs=2, chunk_size=3, prune=_prune_same_parity
        )
        assert outcome_key(parallel) == outcome_key(reference)
        assert parallel.pruned == reference.pruned > 0

    def test_stop_after_accepts_parity(self):
        source = CandidateSource.from_enumerator(_numbers, 40)
        reference = run_search(source, THREES, stop_after_accepts=3)
        parallel = run_search(
            source, THREES, jobs=2, chunk_size=4, stop_after_accepts=3
        )
        assert outcome_key(parallel) == outcome_key(reference)
        assert reference.accepted == (0, 3, 6)

    def test_unpicklable_decider_fails_fast(self):
        decider = PredicateDecider(lambda n: True)
        with pytest.raises(ValueError, match="picklable"):
            run_search(
                CandidateSource.from_enumerator(_numbers, 4),
                decider,
                jobs=2,
            )
        # the sequential path has no such constraint
        outcome = run_search(
            CandidateSource.from_enumerator(_numbers, 4), decider
        )
        assert outcome.accepted == (0, 1, 2, 3)

    def test_entailment_decider_parity(self, unary_schema):
        sigma = tuple(
            parse_tgds("R(x) -> P(x)\nR(x), P(x) -> T(x)", unary_schema)
        )
        from repro.dependencies import enumerate_linear_tgds

        source = CandidateSource.from_enumerator(
            enumerate_linear_tgds, unary_schema, 1, 0
        )
        decider = EntailmentDecider(premises=sigma)
        reference = run_search(source, decider)
        parallel = run_search(source, decider, jobs=2, chunk_size=2)
        assert outcome_key(parallel) == outcome_key(reference)
        assert reference.accepted  # the E9 family has entailed candidates


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------


class TestSearchTelemetry:
    def test_sequential_counters(self):
        TELEMETRY.enable(MemorySink())
        run_search(
            CandidateSource.from_enumerator(_numbers, 9),
            EVENS,
            prune=_prune_same_parity,
        )
        counters = TELEMETRY.snapshot()
        TELEMETRY.disable()
        assert counters["search.candidates"] == 9
        assert counters["search.workers"] == 1
        assert counters["search.pruned"] > 0
        assert "search.chunks" not in counters  # no chunking in-process

    def test_parallel_counts_chunks_and_workers(self):
        TELEMETRY.enable(MemorySink())
        run_search(
            CandidateSource.from_enumerator(_numbers, 10),
            EVENS,
            jobs=2,
            chunk_size=4,
        )
        counters = TELEMETRY.snapshot()
        TELEMETRY.disable()
        assert counters["search.candidates"] == 10
        assert counters["search.chunks"] == 3  # 4 + 4 + 2
        assert counters["search.workers"] == 2

    def test_worker_entailment_counters_merge_back(self, unary_schema):
        sigma = tuple(parse_tgds("R(x) -> P(x)", unary_schema))
        from repro.dependencies import enumerate_linear_tgds

        source = CandidateSource.from_enumerator(
            enumerate_linear_tgds, unary_schema, 1, 0
        )
        TELEMETRY.enable(MemorySink())
        run_search(
            source,
            EntailmentDecider(premises=sigma),
            jobs=2,
            chunk_size=2,
        )
        counters = TELEMETRY.snapshot()
        TELEMETRY.disable()
        # the entailment checks ran in workers, yet their counters are
        # visible in the coordinating process
        assert counters.get("entailment.calls", 0) > 0

    def test_search_span_is_emitted(self):
        sink = MemorySink()
        TELEMETRY.enable(sink)
        run_search(CandidateSource.from_enumerator(_numbers, 3), EVENS)
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

# Counters warmed by process-local memos (certificate memo, plan memo)
# split differently between one process and four forked workers;
# search.workers/chunks describe the execution shape itself.
# Everything else must merge back bit-identically.
_NOT_JOBS_INVARIANT = (
    "analysis.",
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

    def _measure(self, schema, rules, enumerator_args, jobs):
        sigma = tuple(parse_tgds(rules, schema))
        source = CandidateSource.from_enumerator(*enumerator_args)
        # Every decision is one chase, so entailment.calls / chase
        # counters do not depend on which process saw a question first.
        decider = EntailmentDecider(premises=sigma)
        sink = MemorySink()
        TELEMETRY.disable()
        TELEMETRY.reset()
        TELEMETRY.enable(sink)
        kwargs = {"jobs": jobs}
        if jobs > 1:
            kwargs["chunk_size"] = 2
        outcome = run_search(source, decider, **kwargs)
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
