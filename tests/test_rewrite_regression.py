"""Rewriting-output regression tests.

The semi-naive chase and the entailment memo are pure performance work:
the rewriting algorithms must return exactly the same sets as before.
These tests pin the outputs of the ``bench_e9_gtol`` / ``bench_e10_fgtog``
inputs — the Section 9.1 separation witnesses in both directions — and
the Example 5.2 full-tgd rewrite, comparing tgd sets up to variable
renaming via :func:`repro.dependencies.canonical.canonical_key`.
"""

from __future__ import annotations

import pytest

from repro import Schema, parse_tgds
from repro.dependencies.canonical import canonical_key
from repro.dependencies.classes import TGDClass
from repro.memo import clear_memos
from repro.rewriting import (
    RewriteStatus,
    frontier_guarded_to_guarded,
    guarded_to_linear,
    rewrite,
)

UNARY3 = Schema.of(("R", 1), ("P", 1), ("T", 1))


def canonical_set(tgds):
    """A rewriting, as a set of renaming-invariant keys."""
    return frozenset(canonical_key(tgd) for tgd in tgds)


def expected_set(text: str, schema: Schema):
    return canonical_set(parse_tgds(text, schema))


class TestExample9GuardedToLinear:
    """Algorithm 1 on the bench_e9_gtol inputs (Theorem 9.1)."""

    def test_positive_output_pinned(self):
        sigma = parse_tgds("R(x) -> P(x)\nR(x), P(x) -> T(x)", UNARY3)
        result = guarded_to_linear(sigma, schema=UNARY3)
        assert result.status == RewriteStatus.SUCCESS
        assert canonical_set(result.rewriting) == expected_set(
            "R(x) -> P(x)\nR(x) -> T(x)", UNARY3
        )

    def test_negative_separation_witness(self):
        # Σ_G of Section 9.1: guarded, provably not linearizable.
        sigma = parse_tgds("R(x), P(x) -> T(x)", UNARY3)
        result = guarded_to_linear(sigma, schema=UNARY3)
        assert result.status == RewriteStatus.FAILURE
        assert result.rewriting is None


class TestExample10FrontierGuardedToGuarded:
    """Algorithm 2 on the bench_e10_fgtog inputs (Theorem 9.2)."""

    def test_positive_output_pinned(self):
        sigma = parse_tgds("R(x) -> P(x)\nR(x), P(y) -> T(x)", UNARY3)
        result = frontier_guarded_to_guarded(sigma, schema=UNARY3)
        assert result.status == RewriteStatus.SUCCESS
        assert canonical_set(result.rewriting) == expected_set(
            "R(x) -> P(x)\nP(x), R(x) -> T(x)", UNARY3
        )

    def test_negative_separation_witness(self):
        # Σ_F of Section 9.1: frontier-guarded, provably not guardable.
        sigma = parse_tgds("R(x), P(y) -> T(x)", UNARY3)
        result = frontier_guarded_to_guarded(sigma, schema=UNARY3)
        assert result.status == RewriteStatus.FAILURE
        assert result.rewriting is None


class TestExample52FullRewrite:
    """Example 5.2: σ = R(x,y), S(y,z) → T(x,z) is full; the TGD_{n,0}
    search must recover exactly it (up to renaming)."""

    @pytest.fixture
    def sigma(self, binary_schema):
        return parse_tgds("R(x, y), S(y, z) -> T(x, z)", binary_schema)

    def test_full_rewrite_output_pinned(self, sigma, binary_schema):
        result = rewrite(
            sigma, TGDClass.FULL, schema=binary_schema, max_body_atoms=2
        )
        assert result.status == RewriteStatus.SUCCESS
        assert canonical_set(result.rewriting) == canonical_set(sigma)


class TestDeterminism:
    """The repro.search determinism contract, on the pinned inputs: a
    run from cold memos and a repeat run on warm ones agree bit for
    bit — status, rewriting, and the number of candidates consumed."""

    @staticmethod
    def assert_repeatable(run):
        clear_memos()
        cold = run()
        warm = run()
        assert warm.status == cold.status
        # not just canonically equal: the exact same tuple
        assert warm.rewriting == cold.rewriting
        assert warm.unknown_candidates == cold.unknown_candidates
        assert warm.candidates_considered == cold.candidates_considered
        assert warm.entailed_candidates == cold.entailed_candidates
        return cold

    def test_e9_positive(self):
        sigma = parse_tgds("R(x) -> P(x)\nR(x), P(x) -> T(x)", UNARY3)
        self.assert_repeatable(
            lambda: guarded_to_linear(sigma, schema=UNARY3)
        )

    def test_e9_negative(self):
        sigma = parse_tgds("R(x), P(x) -> T(x)", UNARY3)
        self.assert_repeatable(
            lambda: guarded_to_linear(sigma, schema=UNARY3)
        )

    def test_e10_positive(self):
        sigma = parse_tgds("R(x) -> P(x)\nR(x), P(y) -> T(x)", UNARY3)
        self.assert_repeatable(
            lambda: frontier_guarded_to_guarded(sigma, schema=UNARY3)
        )

    def test_e10_negative(self):
        sigma = parse_tgds("R(x), P(y) -> T(x)", UNARY3)
        self.assert_repeatable(
            lambda: frontier_guarded_to_guarded(sigma, schema=UNARY3)
        )

    def test_example_52_full(self, binary_schema):
        sigma = parse_tgds("R(x, y), S(y, z) -> T(x, z)", binary_schema)
        result = self.assert_repeatable(
            lambda: rewrite(
                sigma, TGDClass.FULL, schema=binary_schema,
                max_body_atoms=2,
            )
        )
        assert canonical_set(result.rewriting) == canonical_set(sigma)


class TestRewriteResultShape:
    """The result surface the benches consume must be stable too."""

    def test_failure_counts_candidates(self):
        sigma = parse_tgds("R(x), P(x) -> T(x)", UNARY3)
        result = guarded_to_linear(sigma, schema=UNARY3)
        assert result.candidates_considered > 0
        assert result.entailed_candidates >= 0
        assert result.unknown_candidates == ()

    def test_success_is_minimized(self):
        sigma = parse_tgds("R(x) -> P(x)\nR(x), P(x) -> T(x)", UNARY3)
        result = guarded_to_linear(sigma, schema=UNARY3)
        # the verified candidate set is larger (e.g. contains R(x) -> R(x));
        # minimization must prune it to the two essential members
        assert result.entailed_candidates > len(result.rewriting)
        assert len(result.rewriting) == 2
