"""Entailment verdicts do not depend on memo state, premise order or
variable names.

``entails`` keeps no verdict memo: every call is one freeze-and-chase.
The memos it does consult — the certificate memo behind its default
chase budget and the join-plan memo — must never change a verdict, and
the verdict of ``Σ ⊨ σ`` is a property of the theory ``Σ`` and of ``σ``
up to renaming, so reordering the premises or renaming the
conclusion's variables must not change it either.  The chase budget
``max_rounds`` is part of the question: a verdict under one budget
never answers for another.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import parse_tgds
from repro.dependencies.egd import EGD
from repro.entailment import entails
from repro.lang import Atom, Schema, Var
from repro.memo import clear_memos
from repro.telemetry import TELEMETRY
from repro.workloads.random_tgds import random_schema, random_tgd_set


def _random_question(seed: int):
    """A random (premises, conclusion) entailment question."""
    rng = random.Random(seed)
    schema = random_schema(rng, relations=2, max_arity=2)
    try:
        tgds = random_tgd_set(
            rng,
            schema,
            3,
            body_atoms=2,
            head_atoms=1,
            body_variables=2,
            existential_variables=1,
        )
    except ValueError:
        return None
    return tgds[:2], tgds[2]


def _rephrased(premises, conclusion):
    """The premises reversed and the conclusion's variables renamed
    (fresh names, assigned in reverse order of first occurrence)."""
    renaming = {
        var: Var(f"r{index}")
        for index, var in enumerate(reversed(conclusion.variables()))
    }
    return tuple(reversed(premises)), conclusion.substitute(renaming)


class TestCachedEqualsCold:
    """Warm memos and rephrasings never change a verdict."""

    @pytest.mark.parametrize("seed", range(25))
    def test_cold_vs_cached(self, seed):
        question = _random_question(seed)
        if question is None:
            pytest.skip("schema cannot support requested tgd shape")
        premises, conclusion = question
        clear_memos()
        cold = entails(premises, conclusion)
        # The certificate and plan memos are warm now.
        assert entails(premises, conclusion) == cold
        assert entails(*_rephrased(premises, conclusion)) == cold

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_cold_vs_cached_hypothesis(self, seed):
        question = _random_question(seed)
        if question is None:
            return
        premises, conclusion = question
        verdict = entails(premises, conclusion, max_rounds=3)
        rephrased = _rephrased(premises, conclusion)
        assert entails(*rephrased, max_rounds=3) == verdict


class TestKeyStructure:
    def test_max_rounds_is_part_of_the_key(self):
        # Under Σ = {P(x) -> ∃z E(x,z); E(x,y) -> P(y)} the witness for a
        # two-step E-path out of P(x) appears only in chase round 3, so a
        # 1-round budget is too tight while the default suffices — the
        # same question yields different verdicts under different budgets.
        schema = Schema.of(("P", 1), ("E", 2))
        sigma = parse_tgds(
            "P(x) -> exists z . E(x, z)\nE(x, y) -> P(y)", schema
        )
        conclusion = parse_tgds(
            "P(x) -> exists z, w . E(x, z), E(z, w)", schema
        )[0]
        tight = entails(sigma, conclusion, max_rounds=1)
        roomy = entails(sigma, conclusion)
        assert tight != roomy
        assert not tight.is_definite
        assert roomy.is_true
        # ... and the roomy verdict never answers the tight question.
        assert entails(sigma, conclusion, max_rounds=1) == tight

    def test_key_invariant_under_renaming(self):
        schema = Schema.of(("R", 2), ("S", 2))
        sigma = parse_tgds("R(x, y) -> S(x, y)", schema)
        phrased_one = parse_tgds("R(a, b), R(b, c) -> S(a, c)", schema)[0]
        phrased_two = parse_tgds("R(u, v), R(v, w) -> S(u, w)", schema)[0]
        assert str(phrased_one) != str(phrased_two)
        verdict = entails(sigma, phrased_one)
        assert verdict.is_definite
        assert entails(sigma, phrased_two) == verdict

    def test_premise_order_irrelevant(self):
        schema = Schema.of(("R", 2), ("S", 2))
        sigma = parse_tgds("R(x, y) -> S(x, y)\nS(x, y) -> R(y, x)", schema)
        conclusion = parse_tgds("R(x, y) -> R(y, x)", schema)[0]
        verdict = entails(sigma, conclusion)
        assert verdict.is_true
        assert entails(tuple(reversed(sigma)), conclusion) == verdict

    def test_egd_key_symmetric_in_equated_variables(self):
        rel = Schema.of(("F", 2),).relation("F")
        x, y1, y2 = Var("x"), Var("y1"), Var("y2")
        body = (Atom(rel, (x, y1)), Atom(rel, (x, y2)))
        forward = EGD(body, y1, y2)
        backward = EGD(body, y2, y1)
        assert entails([forward], backward).is_true
        assert entails([backward], forward).is_true
        assert entails((), forward) == entails((), backward)


class TestCounters:
    def test_hits_and_misses_reconcile_with_calls(self):
        # No verdict memo: every call is exactly one chase, and there
        # are no hits or misses to count.
        schema = Schema.of(("R", 2), ("S", 2))
        sigma = parse_tgds("R(x, y) -> S(x, y)", schema)
        conclusions = parse_tgds(
            "R(x, y), R(y, z) -> S(x, z)\n"
            "R(x, y) -> S(x, y)\n"
            "S(x, y) -> R(x, y)",
            schema,
        )
        calls = 0
        TELEMETRY.reset()
        TELEMETRY.enable(spans=False)
        try:
            for __ in range(3):
                for conclusion in conclusions:
                    entails(sigma, conclusion)
                    calls += 1
            counters = TELEMETRY.snapshot()
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert counters["entailment.calls"] == calls == 9
        assert counters["chase.runs"] == calls
        assert not any(name.startswith("entailment.cache_") for name in counters)
