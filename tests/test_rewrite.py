"""Unit tests for Algorithms 1 (`G-to-L`) and 2 (`FG-to-G`)."""

import pytest

from repro import Schema, TGDClass, parse_tgds
from repro.dependencies import all_in_class
from repro.entailment import equivalent
from repro.rewriting import (
    RewriteStatus,
    frontier_guarded_to_guarded,
    guarded_to_linear,
    minimize_tgds,
    rewrite,
)

UNARY3 = Schema.of(("R", 1), ("P", 1), ("T", 1))
BINARY = Schema.of(("E", 2), ("V", 1))


class TestAlgorithm1:
    def test_rejects_non_guarded_input(self):
        sigma = parse_tgds("R(x), P(y) -> T(x)", UNARY3)
        with pytest.raises(ValueError):
            guarded_to_linear(sigma)

    def test_separation_witness_fails(self):
        # Section 9.1: Σ_G has no linear equivalent.
        sigma = parse_tgds("R(x), P(x) -> T(x)", UNARY3)
        result = guarded_to_linear(sigma, schema=UNARY3)
        assert result.status == RewriteStatus.FAILURE
        assert result.rewriting is None

    def test_already_linear_succeeds(self):
        sigma = parse_tgds("R(x) -> T(x)", UNARY3)
        result = guarded_to_linear(sigma, schema=UNARY3)
        assert result.succeeded
        assert all_in_class(result.rewriting, TGDClass.LINEAR)
        assert equivalent(result.rewriting, sigma).is_true

    def test_redundant_guard_removed(self):
        # R(x), R(x) -> T(x) is semantically linear.
        sigma = parse_tgds("R(x), T(x) -> T(x)\nR(x) -> T(x)", UNARY3)
        result = guarded_to_linear(sigma, schema=UNARY3)
        assert result.succeeded
        assert equivalent(result.rewriting, sigma).is_true

    def test_guarded_set_linearizable_through_interaction(self):
        # P(x) is forced by R(x); the join collapses to a linear rule.
        sigma = parse_tgds(
            "R(x) -> P(x)\nR(x), P(x) -> T(x)", UNARY3
        )
        result = guarded_to_linear(sigma, schema=UNARY3)
        assert result.succeeded
        assert equivalent(result.rewriting, sigma).is_true

    def test_existential_linear_rewrite(self):
        sigma = parse_tgds("V(x), E(x, x) -> exists z . E(x, z)", BINARY)
        result = guarded_to_linear(sigma, schema=BINARY)
        # the head is already witnessed by the body atom E(x, x):
        # the tgd is trivial, hence equivalent to any tautology set.
        assert result.succeeded

    def test_width_recorded(self):
        sigma = parse_tgds("R(x), P(x) -> T(x)", UNARY3)
        result = guarded_to_linear(sigma, schema=UNARY3)
        assert result.width == (1, 0)

    def test_result_str_mentions_status(self):
        sigma = parse_tgds("R(x) -> T(x)", UNARY3)
        text = str(guarded_to_linear(sigma, schema=UNARY3))
        assert "success" in text and "linear" in text


class TestAlgorithm2:
    def test_rejects_non_frontier_guarded(self):
        sigma = parse_tgds("R(x), P(y) -> T(x), T(y)", UNARY3)
        assert not all_in_class(sigma, TGDClass.FRONTIER_GUARDED)
        with pytest.raises(ValueError):
            frontier_guarded_to_guarded(sigma)

    def test_separation_witness_fails(self):
        # Section 9.1: Σ_F has no guarded equivalent.
        sigma = parse_tgds("R(x), P(y) -> T(x)", UNARY3)
        result = frontier_guarded_to_guarded(sigma, schema=UNARY3)
        assert result.status == RewriteStatus.FAILURE

    def test_already_guarded_succeeds(self):
        sigma = parse_tgds("R(x), P(x) -> T(x)", UNARY3)
        result = frontier_guarded_to_guarded(sigma, schema=UNARY3)
        assert result.succeeded
        assert all_in_class(result.rewriting, TGDClass.GUARDED)
        assert equivalent(result.rewriting, sigma).is_true

    def test_fg_set_guardable_through_interaction(self):
        # The side condition P(y) is implied nonvacuous... make P forced:
        # every member of R implies P, so the fg join is equivalent to a
        # guarded rule.
        sigma = parse_tgds(
            "R(x) -> P(x)\nR(x), P(y) -> T(x)", UNARY3
        )
        result = frontier_guarded_to_guarded(sigma, schema=UNARY3)
        # R(x), P(y) -> T(x) still requires SOME P... with R(x) alone,
        # P(x) is derived, so R(x) -> T(x) is entailed and suffices.
        assert result.succeeded
        assert equivalent(result.rewriting, sigma).is_true


class TestGenericDriver:
    def test_linear_target_matches_algorithm_1(self):
        sigma = parse_tgds("R(x) -> T(x)", UNARY3)
        generic = rewrite(sigma, TGDClass.LINEAR, schema=UNARY3)
        direct = guarded_to_linear(sigma, schema=UNARY3)
        assert generic.status == direct.status

    def test_full_target(self):
        sigma = parse_tgds("R(x) -> T(x)", UNARY3)
        result = rewrite(sigma, TGDClass.FULL, schema=UNARY3)
        assert result.succeeded
        assert all(t.is_full for t in result.rewriting)

    def test_full_target_fails_for_existential(self):
        sigma = parse_tgds("V(x) -> exists z . E(x, z)", BINARY)
        result = rewrite(sigma, TGDClass.FULL, schema=BINARY, max_body_atoms=1)
        assert result.status == RewriteStatus.FAILURE

    def test_unsupported_target(self):
        sigma = parse_tgds("R(x) -> T(x)", UNARY3)
        with pytest.raises(ValueError):
            rewrite(sigma, TGDClass.TGD)


class TestGenericDriverCaps:
    """The cap kwargs flow through `rewrite()` into the enumerators,
    shrinking the candidate space (and possibly the answer)."""

    def test_guarded_target_extra_body_cap(self):
        # Σ_G needs its own two-atom body as a candidate: with no extra
        # body atoms the guarded fragment degenerates to linear rules,
        # where Σ_G provably has no equivalent.
        sigma = parse_tgds("R(x), P(x) -> T(x)", UNARY3)
        starved = rewrite(
            sigma, TGDClass.GUARDED, schema=UNARY3,
            max_extra_body_atoms=0,
        )
        assert starved.status == RewriteStatus.FAILURE
        generous = rewrite(
            sigma, TGDClass.GUARDED, schema=UNARY3,
            max_extra_body_atoms=1,
        )
        assert generous.succeeded
        assert equivalent(generous.rewriting, sigma).is_true

    def test_full_target_body_cap(self):
        # Example 5.2: σ joins two atoms; a one-atom body cap removes
        # every candidate that could express the join.
        schema = Schema.of(("R", 2), ("S", 2), ("T", 2))
        sigma = parse_tgds("R(x, y), S(y, z) -> T(x, z)", schema)
        starved = rewrite(
            sigma, TGDClass.FULL, schema=schema, max_body_atoms=1
        )
        assert starved.status == RewriteStatus.FAILURE
        generous = rewrite(
            sigma, TGDClass.FULL, schema=schema, max_body_atoms=2
        )
        assert generous.succeeded
        assert equivalent(generous.rewriting, sigma).is_true

    def test_frontier_guarded_target_caps(self):
        sigma = parse_tgds("V(x) -> exists z . E(x, z)", BINARY)
        result = rewrite(
            sigma, TGDClass.FRONTIER_GUARDED, schema=BINARY,
            max_body_atoms=1, max_head_atoms=1,
        )
        assert result.succeeded
        assert all_in_class(result.rewriting, TGDClass.FRONTIER_GUARDED)
        assert equivalent(result.rewriting, sigma).is_true

    def test_linear_target_head_cap(self):
        sigma = parse_tgds("V(x) -> exists z . E(x, z)", BINARY)
        result = rewrite(
            sigma, TGDClass.LINEAR, schema=BINARY, max_head_atoms=1
        )
        assert result.succeeded
        assert all_in_class(result.rewriting, TGDClass.LINEAR)


class TestSearchIntegration:
    """`rewrite()` rides the repro.search kernel: budgets surface as
    INCONCLUSIVE + exhausted, jobs>1 changes nothing, and the result
    string reports the unknown-candidate count."""

    def test_search_budget_degrades_to_inconclusive(self):
        from repro.search import SearchBudget

        sigma = parse_tgds("R(x) -> P(x)\nR(x), P(x) -> T(x)", UNARY3)
        result = guarded_to_linear(
            sigma, schema=UNARY3,
            search_budget=SearchBudget(max_candidates=3),
        )
        assert result.status == RewriteStatus.INCONCLUSIVE
        assert result.exhausted
        assert result.candidates_considered == 3
        assert "[search budget exhausted]" in str(result)

    def test_jobs_do_not_change_the_result(self):
        sigma = parse_tgds("R(x) -> P(x)\nR(x), P(x) -> T(x)", UNARY3)
        sequential = guarded_to_linear(sigma, schema=UNARY3)
        parallel = guarded_to_linear(sigma, schema=UNARY3, jobs=2)
        assert parallel.status == sequential.status
        assert parallel.rewriting == sequential.rewriting
        assert (
            parallel.candidates_considered
            == sequential.candidates_considered
        )
        assert parallel.jobs == 2 and sequential.jobs == 1

    def test_str_reports_unknown_count(self):
        sigma = parse_tgds("R(x) -> T(x)", UNARY3)
        solid = guarded_to_linear(sigma, schema=UNARY3)
        assert "0 unknown" in str(solid)
        starved = guarded_to_linear(sigma, schema=UNARY3, max_rounds=0)
        assert f"{len(starved.unknown_candidates)} unknown" in str(starved)
        assert len(starved.unknown_candidates) > 0


class TestMinimize:
    def test_redundant_member_dropped(self):
        sigma = parse_tgds(
            "R(x) -> P(x)\nP(x) -> T(x)\nR(x) -> T(x)", UNARY3
        )
        reduced = minimize_tgds(sigma)
        assert len(reduced) == 2
        assert equivalent(reduced, sigma).is_true

    def test_irredundant_set_untouched(self):
        sigma = parse_tgds("R(x) -> P(x)\nP(x) -> T(x)", UNARY3)
        assert minimize_tgds(sigma) == sigma

    def test_duplicate_modulo_renaming_dropped(self):
        sigma = parse_tgds("R(x) -> P(x)\nR(y) -> P(y)", UNARY3)
        assert len(minimize_tgds(sigma)) == 1


class TestInconclusive:
    def test_budget_starved_rewrite_is_inconclusive(self):
        # with a zero-round chase budget every candidate entailment is
        # UNKNOWN; the algorithm must refuse to answer, not guess ⊥.
        sigma = parse_tgds("R(x) -> T(x)", UNARY3)
        result = guarded_to_linear(sigma, schema=UNARY3, max_rounds=0)
        assert result.status == RewriteStatus.INCONCLUSIVE
        assert result.rewriting is None
        assert result.unknown_candidates

    def test_generous_budget_recovers(self):
        sigma = parse_tgds("R(x) -> T(x)", UNARY3)
        result = guarded_to_linear(sigma, schema=UNARY3, max_rounds=4)
        assert result.status == RewriteStatus.SUCCESS


class TestFrontierGuardedTarget:
    def test_fg_rewrite_of_non_fg_set(self):
        # S(x), S(y) -> T(x, y) is full but not frontier-guarded; it also
        # has no fg equivalent (not closed the right way), expect failure.
        schema = Schema.of(("S", 1), ("T", 2))
        sigma = parse_tgds("S(x), S(y) -> T(x, y)", schema)
        result = rewrite(
            sigma, TGDClass.FRONTIER_GUARDED, schema=schema,
            max_body_atoms=2,
        )
        assert result.status in (
            RewriteStatus.FAILURE, RewriteStatus.SUCCESS
        )
        if result.succeeded:
            # if a rewriting is claimed it must actually be fg + equivalent
            assert all_in_class(result.rewriting, TGDClass.FRONTIER_GUARDED)
            assert equivalent(result.rewriting, sigma).is_true

    def test_fg_rewrite_of_fg_set_succeeds(self):
        sigma = parse_tgds("R(x), P(y) -> T(x)", UNARY3)
        result = rewrite(
            sigma, TGDClass.FRONTIER_GUARDED, schema=UNARY3,
            max_body_atoms=2,
        )
        assert result.succeeded
        assert all_in_class(result.rewriting, TGDClass.FRONTIER_GUARDED)
        assert equivalent(result.rewriting, sigma).is_true

    def test_class_chain_linear_implies_fg(self):
        sigma = parse_tgds("R(x) -> T(x)", UNARY3)
        result = rewrite(
            sigma, TGDClass.FRONTIER_GUARDED, schema=UNARY3,
            max_body_atoms=1,
        )
        assert result.succeeded
