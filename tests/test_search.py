"""The `repro.search` kernel: deciders and the search loop.

The load-bearing guarantees tested here:

* **the loop is its specification** — accepted, unknown, rejected,
  considered and the stop reason equal a reference model of gate →
  decide → record, under every budget and early stop;
* **budgets degrade, never hang** — an exhausted run reports
  ``exhausted``; a budget landing exactly on the end of the space still
  reports ``complete``; no candidate past a cut or an early stop is
  decided, and the candidate stream is read at most one past it;
* **budgets are budgets** — a negative, non-finite or non-integer
  budget is rejected when the :class:`SearchBudget` is made;
* **telemetry** — the kernel counts ``search.candidates`` and the
  deciders' spans nest under its ``search`` span.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import parse_tgds
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
from repro.telemetry import TELEMETRY, MemorySink


def _is_multiple_of_three(n: int) -> bool:
    return n % 3 == 0


def _is_even(n: int) -> bool:
    return n % 2 == 0


def outcome_key(outcome: SearchOutcome) -> tuple:
    """Every field the determinism contract covers (not elapsed)."""
    return (
        outcome.accepted,
        outcome.unknown,
        outcome.rejected,
        outcome.considered,
        outcome.stop_reason,
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
# The search loop
# ----------------------------------------------------------------------


class TestSequentialDriver:
    def test_collects_verdicts_in_order(self):
        outcome = run_search(range(10), EVENS)
        assert outcome.accepted == (0, 2, 4, 6, 8)
        assert outcome.rejected == 5
        assert outcome.considered == 10
        assert outcome.complete and not outcome.exhausted

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

    def test_exact_cuts(self):
        for cap in (0, 5, 10, 19, 20, 21):
            outcome = run_search(
                range(20), EVENS, budget=SearchBudget(max_candidates=cap)
            )
            assert outcome.considered == min(cap, 20), cap
            assert outcome.accepted == tuple(
                n for n in range(min(cap, 20)) if n % 2 == 0
            )
            # caps at 20 or above drain the 20-candidate space exactly
            assert outcome.exhausted is (cap < 20), cap

    @pytest.mark.parametrize("cap", [0, 1, 10, 64])
    def test_nothing_past_a_cut_is_decided(self, cap):
        read, decided = [], []

        def stream():
            for n in range(500):
                read.append(n)
                yield n

        def counted(n):
            decided.append(n)
            return n % 2 == 0

        outcome = run_search(
            stream(),
            PredicateDecider(counted),
            budget=SearchBudget(max_candidates=cap),
        )
        assert outcome.exhausted and outcome.considered == cap
        assert decided == list(range(cap))
        # the gate reads one candidate past the cut to tell an exhausted
        # space from an exact one, and no further
        assert read == list(range(cap + 1))

    def test_nothing_past_an_early_stop_is_decided(self):
        decided = []

        def counted(n):
            decided.append(n)
            return n == 3

        outcome = run_search(
            range(2000), PredicateDecider(counted), stop_after_accepts=1
        )
        assert outcome.accepted == (3,)
        assert decided == [0, 1, 2, 3]

    @given(
        size=st.integers(min_value=0, max_value=20),
        cap=st.none() | st.integers(min_value=0, max_value=22),
        accepts=st.sampled_from([None, 1, 3]),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_outcome_matches_reference_model(self, size, cap, accepts):
        outcome = run_search(
            range(size),
            THREES,
            budget=SearchBudget(max_candidates=cap),
            stop_after_accepts=accepts,
        )
        # the reference: decide candidates in order until the cap, the
        # accept target or the end of the space
        accepted, considered, reason = [], 0, None
        for n in range(size):
            if cap is not None and considered >= cap:
                reason = "candidate-budget"
                break
            considered += 1
            if n % 3 == 0:
                accepted.append(n)
            if accepts is not None and len(accepted) >= accepts:
                reason = "accept-target"
                break
        assert outcome_key(outcome) == (
            tuple(accepted), (), considered - len(accepted), considered,
            reason,
        )


class TestBudgetValidation:
    """A budget is a non-negative integer (candidates) or a
    non-negative finite number (seconds); anything else is rejected
    when the budget is made, not partway through a run."""

    @pytest.mark.parametrize(
        "fields",
        [
            {"max_candidates": 2.5},
            {"max_candidates": float("nan")},
            {"max_candidates": float("inf")},
            {"max_candidates": "3"},
            {"max_seconds": float("nan")},
            {"max_seconds": float("inf")},
            {"max_seconds": "1"},
        ],
        ids=repr,
    )
    def test_rejected(self, fields):
        with pytest.raises(ValueError):
            SearchBudget(**fields)

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"max_candidates": 0},
            {"max_candidates": 7},
            {"max_seconds": 0},
            {"max_seconds": 2},
            {"max_seconds": 0.25},
        ],
        ids=repr,
    )
    def test_accepted(self, fields):
        run_search(range(3), EVENS, budget=SearchBudget(**fields))


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------


class TestSearchTelemetry:
    def test_sequential_counters(self):
        TELEMETRY.enable(MemorySink())
        run_search(range(9), EVENS)
        counters = TELEMETRY.snapshot()
        TELEMETRY.disable()
        assert counters == {"search.candidates": 9}

    def test_search_span_is_emitted(self):
        sink = MemorySink()
        TELEMETRY.enable(sink)
        run_search(range(3), EVENS)
        TELEMETRY.disable()
        (root,) = [s for s in sink.roots if s.name == "search"]
        assert root.attributes["considered"] == 3
        assert root.attributes["stop_reason"] == "drained"


    def test_decider_spans_nest_under_the_search_span(self, unary_schema):
        from repro.dependencies import enumerate_linear_tgds

        sigma = tuple(
            parse_tgds("R(x) -> P(x)\nR(x), P(x) -> T(x)", unary_schema)
        )
        sink = MemorySink()
        TELEMETRY.enable(sink)
        outcome = run_search(
            enumerate_linear_tgds(unary_schema, 1, 0),
            EntailmentDecider(premises=sigma),
        )
        counters = TELEMETRY.snapshot()
        TELEMETRY.disable()
        assert outcome.accepted  # the E9 family has entailed candidates
        (root,) = sink.roots
        assert root.name == "search"
        entails_spans = [
            child for child in root.children if child.name == "entails"
        ]
        assert entails_spans
        assert counters["entailment.calls"] >= len(entails_spans)
