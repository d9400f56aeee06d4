"""Unit tests for the one-call characterization API (all five theorems)."""

import pytest

from repro import AxiomaticOntology, FiniteOntology, Instance, Schema, TGDClass, parse_tgds
from repro.instances.critical import critical_instance
from repro.properties import characterize, criticality_report
from repro.properties.characterize import _one_critical

UNARY3 = Schema.of(("R", 1), ("P", 1), ("T", 1))
BINARY = Schema.of(("E", 2), ("V", 1))


def axiomatic(text: str, schema=UNARY3) -> AxiomaticOntology:
    return AxiomaticOntology(parse_tgds(text, schema), schema=schema)


class TestLinearOntology:
    def test_all_classes_axiomatizable(self):
        result = characterize(axiomatic("R(x) -> T(x)"), 1, 0)
        assert set(result.axiomatizable_classes()) == {
            TGDClass.TGD,
            TGDClass.FULL,
            TGDClass.LINEAR,
            TGDClass.GUARDED,
            TGDClass.FRONTIER_GUARDED,
        }


class TestSigmaG:
    """The Section 9.1 guarded witness: everything except LINEAR."""

    def test_verdicts(self):
        result = characterize(
            axiomatic("R(x), P(x) -> T(x)"), 2, 0, max_domain_size=2
        )
        assert result[TGDClass.TGD].axiomatizable
        assert result[TGDClass.GUARDED].axiomatizable
        assert result[TGDClass.FRONTIER_GUARDED].axiomatizable
        assert not result[TGDClass.LINEAR].axiomatizable

    def test_failing_condition_named(self):
        result = characterize(
            axiomatic("R(x), P(x) -> T(x)"), 2, 0, max_domain_size=1
        )
        failures = result[TGDClass.LINEAR].failing_conditions()
        assert failures
        assert "linear" in failures[0].property_name


class TestSigmaF:
    """The Section 9.1 frontier-guarded witness: not GUARDED."""

    def test_verdicts(self):
        result = characterize(
            axiomatic("R(x), P(y) -> T(x)"), 2, 0, max_domain_size=2
        )
        assert result[TGDClass.TGD].axiomatizable
        assert result[TGDClass.FRONTIER_GUARDED].axiomatizable
        assert not result[TGDClass.GUARDED].axiomatizable
        assert not result[TGDClass.LINEAR].axiomatizable


class TestExistentialOntology:
    def test_not_full(self):
        ontology = AxiomaticOntology(
            parse_tgds("V(x) -> exists z . E(x, z)", BINARY), schema=BINARY
        )
        result = characterize(ontology, 1, 1, max_domain_size=2)
        assert result[TGDClass.TGD].axiomatizable
        assert result[TGDClass.LINEAR].axiomatizable
        assert not result[TGDClass.FULL].axiomatizable


class TestNonTgdOntology:
    def test_nothing_axiomatizable(self):
        # "exactly the single-R instance" is no class of tgd models.
        seeds = [Instance.parse("R(a)", UNARY3)]
        result = characterize(FiniteOntology(seeds), 1, 0, max_domain_size=1)
        assert result.axiomatizable_classes() == ()
        # criticality is the culprit everywhere
        assert not result[TGDClass.TGD].reports[0].holds

    def test_str_rendering(self):
        result = characterize(axiomatic("R(x) -> T(x)"), 1, 0, max_domain_size=1)
        text = str(result)
        assert "Theorem 4.1" in text and "YES" in text


class TestOneCriticalReadOffTheSharedReport:
    """Theorem 5.6's 1-criticality report is read off the shared
    criticality battery, which checks k = 1 first, instead of being run
    again: it must equal ``criticality_report(ontology, max_k=1)``."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        "ontology",
        [
            axiomatic("R(x) -> P(x)"),
            # The 1-critical instance is not a member: fails at k = 1.
            FiniteOntology([Instance.parse("R(a)", UNARY3)]),
            # The 1-critical instance is the only member: fails at k = 2.
            FiniteOntology([critical_instance(UNARY3, 1)]),
        ],
        ids=["axiomatic", "fails-at-1", "fails-at-2"],
    )
    def test_equals_the_k1_battery(self, ontology, k):
        shared = criticality_report(ontology, max_k=k)
        assert _one_critical(shared) == criticality_report(ontology, max_k=1)
