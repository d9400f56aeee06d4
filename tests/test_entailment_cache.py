"""Property-based tests for the entailment memo (:mod:`repro.entailment.cache`).

The contract under test: a cached verdict is indistinguishable from a
cold one, the chase budget (``max_rounds``) is part of the key (a
verdict decided under a small budget must never answer a question asked
under a larger one), keys are invariant under variable renaming, and
the hit/miss/eviction counters reconcile exactly with the calls made.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import parse_tgds
from repro.dependencies.egd import EGD
from repro.entailment import (
    ENTAILMENT_CACHE,
    dependency_cache_key,
    entailment_cache_key,
    entails,
)
from repro.lang import Atom, Schema, Var
from repro.memo import Memo
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


class TestCachedEqualsCold:
    """The core property: memoization never changes a verdict."""

    @pytest.mark.parametrize("seed", range(25))
    def test_cold_vs_cached(self, seed):
        question = _random_question(seed)
        if question is None:
            pytest.skip("schema cannot support requested tgd shape")
        premises, conclusion = question
        cold = entails(premises, conclusion, max_rounds=4, cache=False)
        assert not ENTAILMENT_CACHE.info()["size"]
        warm_miss = entails(premises, conclusion, max_rounds=4)
        warm_hit = entails(premises, conclusion, max_rounds=4)
        assert warm_miss == cold
        assert warm_hit == cold
        assert ENTAILMENT_CACHE.hits >= 1

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_cold_vs_cached_hypothesis(self, seed):
        question = _random_question(seed)
        if question is None:
            return
        premises, conclusion = question
        ENTAILMENT_CACHE.clear()
        cold = entails(premises, conclusion, max_rounds=3, cache=False)
        warm = entails(premises, conclusion, max_rounds=3)
        assert entails(premises, conclusion, max_rounds=3) == warm == cold


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
        # both verdicts live in the cache side by side
        key_tight = entailment_cache_key(sigma, conclusion, 1)
        key_roomy = entailment_cache_key(sigma, conclusion, None)
        assert key_tight != key_roomy
        assert ENTAILMENT_CACHE.get(key_tight) == tight
        assert ENTAILMENT_CACHE.get(key_roomy) == roomy

    def test_key_invariant_under_renaming(self):
        schema = Schema.of(("R", 2), ("S", 2))
        sigma = parse_tgds("R(x, y) -> S(x, y)", schema)
        phrased_one = parse_tgds("R(a, b), R(b, c) -> S(a, c)", schema)[0]
        phrased_two = parse_tgds("R(u, v), R(v, w) -> S(u, w)", schema)[0]
        assert str(phrased_one) != str(phrased_two)
        assert entailment_cache_key(
            sigma, phrased_one, None
        ) == entailment_cache_key(sigma, phrased_two, None)
        # ... so the second phrasing is answered from the memo:
        entails(sigma, phrased_one)
        hits_before = ENTAILMENT_CACHE.hits
        entails(sigma, phrased_two)
        assert ENTAILMENT_CACHE.hits == hits_before + 1

    def test_premise_order_irrelevant(self):
        schema = Schema.of(("R", 2), ("S", 2))
        sigma = parse_tgds("R(x, y) -> S(x, y)\nS(x, y) -> R(y, x)", schema)
        conclusion = parse_tgds("R(x, y) -> R(y, x)", schema)[0]
        assert entailment_cache_key(
            sigma, conclusion, None
        ) == entailment_cache_key(tuple(reversed(sigma)), conclusion, None)

    def test_egd_key_symmetric_in_equated_variables(self):
        rel = Schema.of(("F", 2),).relation("F")
        x, y1, y2 = Var("x"), Var("y1"), Var("y2")
        body = (Atom(rel, (x, y1)), Atom(rel, (x, y2)))
        forward = EGD(body, y1, y2)
        backward = EGD(body, y2, y1)
        assert dependency_cache_key(forward) == dependency_cache_key(backward)


class TestCounters:
    def test_hits_and_misses_reconcile_with_calls(self):
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
        assert counters["entailment.cache_misses"] == len(conclusions) == 3
        assert counters["entailment.cache_hits"] == calls - len(conclusions)
        assert ENTAILMENT_CACHE.hits + ENTAILMENT_CACHE.misses == calls
        assert ENTAILMENT_CACHE.info()["size"] == len(conclusions)

    def test_cache_false_bypasses_entirely(self):
        schema = Schema.of(("R", 2), ("S", 2))
        sigma = parse_tgds("R(x, y) -> S(x, y)", schema)
        conclusion = parse_tgds("R(x, y) -> S(x, y)", schema)[0]
        for __ in range(3):
            entails(sigma, conclusion, cache=False)
        assert ENTAILMENT_CACHE.info()["size"] == 0
        assert ENTAILMENT_CACHE.hits == ENTAILMENT_CACHE.misses == 0


class TestEviction:
    def test_lru_evicts_oldest_and_counts(self):
        cache = Memo(maxsize=2)
        cache.put("a", "va")
        cache.put("b", "vb")
        value = cache.get("a")  # refresh "a": now "b" is oldest
        assert value == "va"
        cache.put("c", "vc")
        assert cache.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") == "va"
        assert cache.get("c") == "vc"
        assert cache.info() == {
            "size": 2,
            "maxsize": 2,
            "hits": 3,
            "misses": 1,
            "evictions": 1,
        }

    def test_clear_resets_statistics(self):
        cache = Memo(maxsize=2)
        cache.put("a", "va")
        cache.get("a")
        cache.get("zzz")
        cache.clear()
        assert cache.info() == {
            "size": 0,
            "maxsize": 2,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
        }
