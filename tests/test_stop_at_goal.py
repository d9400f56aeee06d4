"""A chase that runs round by round, and entailment that stops it at
its goal.

* ``TestAdvance`` — a :class:`~repro.chase.ChaseRun` advanced one round
  at a time, or in steps of any size, passes through the states of
  ``chase(max_rounds=k)``: facts, null numbering, ``rounds``,
  ``fired``, ``nulls_created``, stop reason and ``on_fire`` trace, on
  random scenarios with egds and denials, both variants.
* ``TestVerdictsMatchTheReference`` — on random guarded and
  frontier-guarded premise sets (some with a key egd) under
  ``max_rounds`` None, 1 and 3, every verdict of an unshared
  ``entails``, of ``entails_all`` and of the body-sharing
  :class:`~repro.search.EntailmentDecider` equals the chase-to-the-end
  reference of ``tests/oracles/entailment.py``; and ``minimize_tgds``'s
  one pass returns what re-sweeping until nothing changes returns.
* ``TestStopsAtTheGoal`` — pinned questions: a chase runs only the
  rounds its goal needs, and a later head of the same body resumes it.
* ``TestMinimizeAsksTheUnknownAgain`` — a pinned set whose member is
  UNKNOWN in the first pass and dropped in the second.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Instance, Schema, TGDClass, chase, parse_tgds
from repro.chase import ChaseRun, StopReason
from repro.entailment import TriBool, entails, entails_all
from repro.entailment.trivalent import tri_all
from repro.rewriting import minimize_tgds
from repro.search import EntailmentDecider
from repro.telemetry import TELEMETRY, MemorySink
from repro.workloads import random_schema
from repro.workloads.random_tgds import random_tgd
from tests.oracles.entailment import reference_entails, reference_minimize
from tests.test_differential_chase import _random_scenario
from tests.test_shared_chase import _enumerated, _hand_made, premise_sets

# The fact budget of the differential grid: random existential sets can
# grow fast.
MAX_FACTS = 250

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


def _outcome(result, trace):
    return (
        result.instance, result.rounds, result.fired, result.nulls_created,
        result.stop_reason, result.terminated, result.failed, trace,
    )


def _recorder():
    trace = []
    return trace, lambda tgd, trigger, added: trace.append(
        (tgd, dict(trigger), added)
    )


def _instance(schema, text):
    return Instance.parse(text, schema)


def _scenarios():
    return st.tuples(
        st.integers(min_value=0, max_value=2**20),
        st.booleans(),
        st.booleans(),
        st.sampled_from(("restricted", "oblivious")),
    )


def _scenario(drawn):
    seed, egds, denials, variant = drawn
    if variant == "oblivious":
        egds = denials = False
    scenario = _random_scenario(seed, with_egds=egds, with_denials=denials)
    if scenario is None:
        return None
    return (*scenario, variant)


class TestAdvance:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(drawn=_scenarios(), k=st.integers(min_value=0, max_value=6))
    def test_one_round_at_a_time_is_the_budgeted_chase(self, drawn, k):
        scenario = _scenario(drawn)
        if scenario is None:
            return
        instance, deps, variant = scenario
        expected_trace, hook = _recorder()
        expected = chase(
            instance, deps, variant=variant, max_rounds=k,
            max_facts=MAX_FACTS, on_fire=hook,
        )
        # Budgeted like the chase: it stops by the k-th call at the latest.
        trace, hook = _recorder()
        run = ChaseRun(
            instance, deps, variant=variant, max_rounds=k,
            max_facts=MAX_FACTS, on_fire=hook,
        )
        calls = 0
        while run.stop_reason is None:
            assert run.advance(1) == run.stop_reason
            calls += 1
        assert calls <= max(k, 1)
        assert _outcome(run.result(), trace) == _outcome(
            expected, expected_trace
        )
        # Unbudgeted: after k one-round calls it holds the same state,
        # still running where the budgeted chase ran out of rounds.
        trace, hook = _recorder()
        run = ChaseRun(
            instance, deps, variant=variant, max_facts=MAX_FACTS,
            on_fire=hook,
        )
        for __ in range(k):
            run.advance(1)
        got = run.result()
        assert got.instance == expected.instance
        assert (got.rounds, got.fired, got.nulls_created, trace) == (
            expected.rounds, expected.fired, expected.nulls_created,
            expected_trace,
        )
        if expected.stop_reason == StopReason.ROUND_BUDGET:
            assert run.stop_reason is None
        else:
            assert run.stop_reason == expected.stop_reason

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        drawn=_scenarios(),
        steps=st.lists(st.integers(min_value=0, max_value=3), max_size=6),
    )
    def test_steps_of_any_size_are_one_run(self, drawn, steps):
        scenario = _scenario(drawn)
        if scenario is None:
            return
        instance, deps, variant = scenario
        expected_trace, hook = _recorder()
        expected = chase(
            instance, deps, variant=variant, max_rounds=5, max_facts=MAX_FACTS,
            on_fire=hook,
        )
        trace, hook = _recorder()
        run = ChaseRun(
            instance, deps, variant=variant, max_rounds=5, max_facts=MAX_FACTS,
            on_fire=hook,
        )
        for step in steps:
            run.advance(step)
        run.advance()
        assert _outcome(run.result(), trace) == _outcome(
            expected, expected_trace
        )

    def test_a_stopped_run_does_not_advance(self):
        schema = Schema.of(("R", 1), ("P", 1))
        deps = parse_tgds("R(x) -> P(x)", schema)
        run = ChaseRun(_instance(schema, "R(a)"), deps)
        assert run.advance() == StopReason.FIXPOINT
        rounds = run.rounds
        assert run.advance(3) == StopReason.FIXPOINT
        assert run.rounds == rounds

    def test_a_run_counts_once_however_often_it_advances(self):
        schema = Schema.of(("R", 1), ("P", 1), ("T", 1))
        deps = parse_tgds("R(x) -> P(x)\nP(x) -> T(x)", schema)
        TELEMETRY.enable(MemorySink())
        run = ChaseRun(_instance(schema, "R(a)"), deps)
        while run.advance(1) is None:
            pass
        counters = TELEMETRY.snapshot()
        assert counters["chase.runs"] == 1
        assert counters["chase.rounds"] == run.rounds == 3


class TestVerdictsMatchTheReference:
    @SETTINGS
    @given(premise_sets())
    def test_unshared_calls(self, drawn):
        rng, schema, sigma, max_rounds = drawn
        stream = _hand_made(rng, schema, _enumerated(rng, schema))
        verdicts = [
            entails(sigma, candidate, max_rounds=max_rounds)
            for candidate in stream
        ]
        assert verdicts == [
            reference_entails(sigma, candidate, max_rounds=max_rounds)
            for candidate in stream
        ]
        assert entails_all(sigma, stream, max_rounds=max_rounds) == tri_all(
            verdicts
        )

    @SETTINGS
    @given(premise_sets())
    def test_shared_calls(self, drawn):
        rng, schema, sigma, max_rounds = drawn
        stream = _hand_made(rng, schema, _enumerated(rng, schema))
        decider = EntailmentDecider(premises=sigma, max_rounds=max_rounds)
        assert [decider(candidate) for candidate in stream] == [
            reference_entails(sigma, candidate, max_rounds=max_rounds)
            for candidate in stream
        ]

    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        max_rounds=st.sampled_from((None, 1, 3)),
    )
    def test_minimize_in_one_pass(self, seed, max_rounds):
        rng = random.Random(seed)
        schema = random_schema(
            rng, relations=rng.randint(2, 3), min_arity=1, max_arity=2
        )
        tgds = [
            random_tgd(
                rng, schema,
                cls=rng.choice((TGDClass.LINEAR, TGDClass.GUARDED)),
                body_atoms=rng.randint(1, 2), head_atoms=1,
                body_variables=2, existential_variables=rng.randint(0, 1),
            )
            for __ in range(rng.randint(2, 6))
        ]
        # Members the others entail, so some are dropped.
        tgds += [rng.choice(tgds)] * rng.randint(0, 1)
        assert minimize_tgds(tgds, max_rounds=max_rounds) == (
            reference_minimize(tgds, max_rounds=max_rounds)
        )


class TestStopsAtTheGoal:
    SCHEMA = Schema.of(("R", 1), ("P", 1), ("T", 1), ("Q", 1))
    # Q is in the premises' schema, so one chase decides every head.
    SIGMA = "R(x) -> P(x)\nP(x) -> T(x)\nQ(x) -> T(x)"

    def _rounds(self, ask):
        TELEMETRY.enable(MemorySink())
        verdicts = ask()
        counters = TELEMETRY.snapshot()
        TELEMETRY.disable()
        TELEMETRY.reset()
        return verdicts, counters.get("chase.rounds", 0), counters["chase.runs"]

    @pytest.mark.parametrize(
        "conclusion, verdict, rounds",
        [
            ("R(x) -> R(x)", TriBool.TRUE, 0),
            ("R(x) -> P(x)", TriBool.TRUE, 1),
            ("R(x) -> T(x)", TriBool.TRUE, 2),
            # FALSE needs the fixpoint: two rounds that add, one that
            # finds nothing.
            ("R(x) -> Q(x)", TriBool.FALSE, 3),
        ],
    )
    def test_an_unshared_chase_runs_the_rounds_its_goal_needs(
        self, conclusion, verdict, rounds
    ):
        sigma = parse_tgds(self.SIGMA, self.SCHEMA)
        (goal,) = parse_tgds(conclusion, self.SCHEMA)
        assert self._rounds(lambda: entails(sigma, goal)) == (
            verdict, rounds, 1
        )

    def test_a_later_head_resumes_the_chase(self):
        sigma = parse_tgds(self.SIGMA, self.SCHEMA)
        heads = parse_tgds(
            "R(x) -> R(x)\nR(x) -> T(x)\nR(x) -> P(x)\nR(x) -> Q(x)",
            self.SCHEMA,
        )
        decider = EntailmentDecider(premises=sigma)
        verdicts, rounds, runs = self._rounds(
            lambda: [decider(head) for head in heads]
        )
        assert verdicts == [
            TriBool.TRUE, TriBool.TRUE, TriBool.TRUE, TriBool.FALSE
        ]
        # One chase for the body R(x): stopped at round 0, resumed to
        # round 2, read as it stood, then run to its fixpoint.
        assert (rounds, runs) == (3, 1)

    def test_a_budget_spent_before_the_goal_is_unknown(self):
        schema = Schema.of(("P", 1), ("R", 2))
        sigma = parse_tgds("P(x) -> exists z . R(x, z)\nR(x, y) -> P(y)",
                           schema)
        (goal,) = parse_tgds("P(x) -> exists y, z . R(x, y), R(y, z)",
                             schema)
        (never,) = parse_tgds("R(x, y) -> R(y, x)", schema)
        assert entails(sigma, goal, max_rounds=1) is TriBool.UNKNOWN
        assert entails(sigma, goal, max_rounds=3) is TriBool.TRUE
        # Round 1 adds R(x, n1) and P(n1), round 2 R(n1, n2).
        assert self._rounds(lambda: entails(sigma, goal)) == (
            TriBool.TRUE, 2, 1
        )
        # No certificate: the default budget runs out.
        assert entails(sigma, never) is TriBool.UNKNOWN


class TestMinimizeAsksTheUnknownAgain:
    """A member kept on UNKNOWN is asked again once a later member is
    dropped, as the whole-set re-sweep would."""

    # A chain of 14 full rules that each round advances one step (rules
    # fire in sorted order, so O -> N runs before P -> O), the shortcut
    # P -> B that needs all 14 rounds, and a non-terminating rule that
    # R(x, y) -> R(y, y) entails.
    CHAIN = "PONMLKJIHGFEDCB"
    SCHEMA = Schema.of(*((name, 1) for name in CHAIN), ("R", 2))

    def test_unknown_member_is_dropped_in_a_later_pass(self):
        rules = [
            "R(x, y) -> exists z . R(y, z)",
            "R(x, y) -> R(y, y)",
            *(f"{a}(x) -> {b}(x)" for a, b in zip(self.CHAIN, self.CHAIN[1:])),
            "P(x) -> B(x)",
        ]
        sigma = [parse_tgds(rule, self.SCHEMA)[0] for rule in rules]
        reduced = minimize_tgds(sigma)
        assert reduced == reference_minimize(sigma)
        # The shortcut is UNKNOWN under the 12-round default budget while
        # the non-terminating rule is in, and TRUE once it is dropped.
        assert reduced == tuple(sigma[1:-1])
