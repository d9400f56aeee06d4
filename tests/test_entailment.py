"""Unit tests for freeze-and-chase entailment and equivalence."""

import pytest

from repro import BCQ, Instance, Schema, certain_answer, entails, equivalent
from repro.dependencies import enumerate_linear_tgds
from repro.entailment import (
    Premises,
    TriBool,
    UndecidedError,
    entailed_by_empty_theory,
    entails_all,
    tri_all,
)
from repro.lang import parse_atoms, parse_edd, parse_egd, parse_tgd, parse_tgds
from repro.memo import clear_memos
from repro.rewriting import minimize_tgds
from repro.search import EntailmentDecider, run_search
from repro.telemetry import TELEMETRY, MemorySink

SCHEMA = Schema.of(("E", 2), ("P", 1), ("Q", 1))


def rules(text: str):
    return parse_tgds(text, SCHEMA)


class TestTriBool:
    def test_kleene_tables(self):
        T, F, U = TriBool.TRUE, TriBool.FALSE, TriBool.UNKNOWN
        assert (T & U) is U and (F & U) is F
        assert (T | U) is T and (F | U) is U
        assert (~U) is U and (~T) is F

    def test_no_bool_coercion(self):
        with pytest.raises(TypeError):
            bool(TriBool.TRUE)

    def test_require(self):
        assert TriBool.TRUE.require() is True
        with pytest.raises(UndecidedError):
            TriBool.UNKNOWN.require("context")

    def test_tri_all_short_circuits(self):
        def generator():
            yield TriBool.FALSE
            raise AssertionError("must not be consumed")

        assert tri_all(generator()) is TriBool.FALSE


class TestEntailment:
    def test_transitivity_chain(self):
        sigma = rules("E(x, y) -> P(x)\nP(x) -> Q(x)")
        assert entails(sigma, parse_tgd("E(x, y) -> Q(x)", SCHEMA)).is_true

    def test_non_entailment(self):
        sigma = rules("E(x, y) -> P(x)")
        assert entails(sigma, parse_tgd("E(x, y) -> P(y)", SCHEMA)).is_false

    def test_existential_conclusion(self):
        sigma = rules("P(x) -> exists z . E(x, z)")
        assert entails(
            sigma, parse_tgd("P(x) -> exists w . E(x, w)", SCHEMA)
        ).is_true
        assert entails(
            sigma, parse_tgd("P(x) -> exists w . E(w, x)", SCHEMA)
        ).is_false

    def test_stronger_body_entailed(self):
        sigma = rules("E(x, y) -> P(x)")
        assert entails(
            sigma, parse_tgd("E(x, y), Q(x) -> P(x)", SCHEMA)
        ).is_true

    def test_unknown_on_nonterminating_negative(self):
        sigma = rules("P(x) -> exists z . E(x, z)\nE(x, z) -> P(z)")
        verdict = entails(sigma, parse_tgd("P(x) -> Q(x)", SCHEMA))
        assert verdict is TriBool.UNKNOWN

    def test_positive_found_despite_nontermination(self):
        sigma = rules("P(x) -> exists z . E(x, z)\nE(x, z) -> P(z)")
        assert entails(
            sigma, parse_tgd("P(x) -> exists z . E(x, z)", SCHEMA)
        ).is_true

    def test_empty_body_conclusion(self):
        sigma = rules("-> exists z . P(z)")
        assert entails(sigma, parse_tgd("-> exists w . P(w)", SCHEMA)).is_true
        assert entails((), parse_tgd("-> exists w . P(w)", SCHEMA)).is_false

    def test_egd_conclusion_from_tgds_is_false(self):
        sigma = rules("E(x, y) -> P(x)")
        assert entails(
            sigma, parse_egd("E(x, y), E(x, z) -> y = z", SCHEMA)
        ).is_false

    def test_egd_conclusion_from_egds(self):
        key = parse_egd("E(x, y), E(x, z) -> y = z", SCHEMA)
        sym = parse_tgd("E(x, y) -> E(y, x)", SCHEMA)
        concl = parse_egd("E(x, y), E(z, y) -> x = z", SCHEMA)
        assert entails([key], concl).is_false
        assert entails([key, sym], concl).is_true

    def test_trivial_egd_always_entailed(self):
        assert entails((), parse_egd("E(x, y) -> x = x", SCHEMA)).is_true

    def test_edd_conclusion(self):
        sigma = rules("P(x) -> Q(x)")
        disj = parse_edd("P(x) -> Q(x) | exists z . E(x, z)", SCHEMA)
        assert entails(sigma, disj).is_true
        other = parse_edd("Q(x) -> P(x) | exists z . E(x, z)", SCHEMA)
        assert entails(sigma, other).is_false

    def test_entails_all(self):
        sigma = rules("E(x, y) -> P(x)\nP(x) -> Q(x)")
        goals = rules("E(x, y) -> Q(x)\nP(x) -> Q(x)")
        assert entails_all(sigma, list(goals)).is_true

    def test_entailed_by_empty_theory(self):
        assert entailed_by_empty_theory(parse_tgd("P(x) -> P(x)", SCHEMA))
        assert not entailed_by_empty_theory(parse_tgd("P(x) -> Q(x)", SCHEMA))


class TestEquivalence:
    def test_reflexive(self):
        sigma = rules("E(x, y) -> P(x)")
        assert equivalent(sigma, sigma).is_true

    def test_reformulation(self):
        left = rules("E(x, y) -> P(x)\nP(x) -> Q(x)\nE(x, y) -> Q(x)")
        right = rules("E(x, y) -> P(x)\nP(x) -> Q(x)")
        assert equivalent(left, right).is_true

    def test_non_equivalence(self):
        assert equivalent(
            rules("E(x, y) -> P(x)"), rules("E(x, y) -> P(y)")
        ).is_false

    def test_stronger_not_equivalent(self):
        strong = rules("E(x, y) -> P(x)")
        weak = rules("E(x, y), Q(x) -> P(x)")
        assert equivalent(strong, weak).is_false


class TestCertainAnswers:
    def test_query_after_chase(self):
        sigma = rules("P(x) -> exists z . E(x, z)")
        db = Instance.parse("P(a)", SCHEMA)
        q = BCQ(parse_atoms("E(x, y)", SCHEMA))
        assert certain_answer(db, sigma, q).is_true

    def test_query_with_constants(self):
        from repro.lang import Atom, Const, Var

        sigma = rules("E(x, y) -> E(y, x)")
        db = Instance.parse("E(a, b)", SCHEMA)
        q = BCQ([Atom(SCHEMA.relation("E"), (Const("b"), Var("w")))])
        assert certain_answer(db, sigma, q).is_true

    def test_negative_certain_answer(self):
        sigma = rules("E(x, y) -> P(x)")
        db = Instance.parse("E(a, b)", SCHEMA)
        q = BCQ(parse_atoms("Q(x)", SCHEMA))
        assert certain_answer(db, sigma, q).is_false

    def test_unknown_when_budget_exhausted(self):
        sigma = rules("P(x) -> exists z . E(x, z)\nE(x, z) -> P(z)")
        db = Instance.parse("P(a)", SCHEMA)
        q = BCQ(parse_atoms("Q(x)", SCHEMA))
        assert certain_answer(db, sigma, q, max_rounds=3) is TriBool.UNKNOWN

    def test_bcq_requires_atoms(self):
        with pytest.raises(ValueError):
            BCQ(())


# A weakly acyclic set with one redundant member (the third follows
# from the first two) and an invention that never feeds back.
CERTIFIED = (
    "E(x, y) -> P(x)\nP(x) -> Q(x)\nE(x, y) -> Q(x)\n"
    "Q(x) -> exists z . E(x, z)"
)
# The classic non-terminating rule beside two full ones.
UNCERTIFIED = "E(x, y) -> exists z . E(y, z)\nE(x, y) -> P(x)\nP(x) -> Q(x)"


def _counted(run):
    """``run()``'s result and the telemetry counters it left, cold."""
    clear_memos()
    TELEMETRY.reset()
    TELEMETRY.enable(MemorySink())
    try:
        result = run()
        return result, TELEMETRY.snapshot()
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()


class TestPreparedPremises:
    """A premise set is prepared and certified once, however many
    questions are asked of it, and answers exactly as a plain sequence
    does."""

    def test_prepared_and_plain_sets_answer_alike(self):
        for text in (CERTIFIED, UNCERTIFIED):
            sigma = rules(text)
            goals = [
                *rules(
                    "E(x, y) -> Q(x)\nQ(x) -> P(x)\n"
                    "P(x) -> exists z . E(x, z)"
                ),
                parse_egd("E(x, y), E(x, z) -> y = z", SCHEMA),
            ]
            prepared = Premises(sigma)
            for goal in goals:
                assert entails(prepared, goal) is entails(sigma, goal)
                assert entails(prepared, goal, max_rounds=1) is entails(
                    sigma, goal, max_rounds=1
                )

    def test_egd_premises_freeze_into_nulls(self):
        key = parse_egd("E(x, y), E(x, z) -> y = z", SCHEMA)
        sym = parse_tgd("E(x, y) -> E(y, x)", SCHEMA)
        concl = parse_egd("E(x, y), E(z, y) -> x = z", SCHEMA)
        prepared = Premises([sym, key])
        assert prepared.soft
        assert entails(prepared, concl).is_true
        # cutting the egd away freezes into constants again
        assert not prepared.without(1).soft
        assert entails(prepared.without(1), concl).is_false

    def test_entails_all_certifies_once(self):
        sigma = rules(CERTIFIED)
        goals = rules("E(x, y) -> Q(x)\nQ(x) -> P(x)\nE(x, y) -> P(x)")
        verdict, counters = _counted(lambda: entails_all(sigma, goals))
        assert verdict is TriBool.TRUE
        assert counters["entailment.calls"] == len(goals)
        assert counters["analysis.certificates_computed"] == 1
        assert "analysis.certificate_cache_hits" not in counters

    def test_minimize_certifies_a_certified_set_once(self):
        sigma = rules(CERTIFIED)
        reduced, counters = _counted(lambda: minimize_tgds(sigma))
        assert len(reduced) == 3
        assert equivalent(reduced, sigma).is_true
        assert counters["analysis.certificates_computed"] == 1
        # one pass, every member asked once: none is UNKNOWN
        assert counters["entailment.calls"] == len(sigma)
        # one chase per question, each run without a round budget
        assert counters["chase.certificate"] == counters["entailment.calls"]

    def test_minimize_gates_subsets_of_an_uncertified_set_alone(self):
        sigma = rules(UNCERTIFIED)
        prepared = Premises(sigma)
        assert not prepared.certificate.guarantees_termination
        # without the cyclic rule the rest is weakly acyclic on its own
        assert prepared.without(0).certificate.guarantees_termination
        assert not prepared.without(2).certificate.guarantees_termination
        reduced, counters = _counted(lambda: minimize_tgds(sigma))
        assert reduced == tuple(sigma)
        # R itself plus each rest: nothing inherited from an uncertified set
        assert counters["analysis.certificates_computed"] == 1 + len(sigma)

    def test_decider_certifies_once_for_all_candidates(self):
        sigma = tuple(rules(CERTIFIED))

        def search():
            decider = EntailmentDecider(premises=sigma)
            return run_search(enumerate_linear_tgds(SCHEMA, 2, 1), decider)

        outcome, counters = _counted(search)
        assert outcome.considered > 10
        assert counters["analysis.certificates_computed"] == 1
        assert "analysis.certificate_cache_hits" not in counters
        assert counters["entailment.calls"] == outcome.considered
        # one chase per body, each run without a round budget
        assert counters["chase.runs"] < counters["entailment.calls"]
        assert counters["chase.certificate"] == counters["chase.runs"]

    def test_an_explicit_budget_never_certifies(self):
        sigma = tuple(rules(CERTIFIED))
        goal = parse_tgd("E(x, y) -> Q(x)", SCHEMA)

        def ask():
            decider = EntailmentDecider(premises=sigma, max_rounds=5)
            return decider(goal)

        __, counters = _counted(ask)
        assert "analysis.certificates_computed" not in counters
        assert "chase.certificate" not in counters
