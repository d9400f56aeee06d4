"""Unit tests for workload generators and curated scenarios."""

import random

import pytest

from repro import TGDClass, chase
from repro.chase import is_weakly_acyclic
from repro.dependencies import in_class
from repro.workloads import (
    all_scenarios,
    company_guarded,
    example_5_2,
    family_frontier_guarded,
    library_weakly_acyclic,
    random_instance,
    random_model,
    random_schema,
    random_tgd,
    random_tgd_set,
    social_non_terminating,
    triangle_full,
    university_linear,
)
from tests.oracles.critical import is_critical


class TestRandomGenerators:
    def test_schema_shape(self, rng):
        schema = random_schema(rng, relations=4, max_arity=3)
        assert len(schema) == 4
        assert all(1 <= r.arity <= 3 for r in schema)

    def test_deterministic_given_seed(self):
        a = random_tgd(random.Random(7), random_schema(random.Random(7)))
        b = random_tgd(random.Random(7), random_schema(random.Random(7)))
        assert a == b

    @pytest.mark.parametrize(
        "cls",
        [
            TGDClass.TGD,
            TGDClass.FULL,
            TGDClass.LINEAR,
            TGDClass.GUARDED,
            TGDClass.FRONTIER_GUARDED,
        ],
    )
    def test_class_respected(self, rng, cls):
        schema = random_schema(rng, relations=3, max_arity=3)
        for __ in range(10):
            tgd = random_tgd(rng, schema, cls=cls)
            assert in_class(tgd, cls)

    def test_random_tgd_set_size(self, rng):
        schema = random_schema(rng)
        assert len(random_tgd_set(rng, schema, 5)) == 5

    def test_random_instance_density_extremes(self, rng):
        schema = random_schema(rng, relations=2, max_arity=2)
        empty = random_instance(rng, schema, 3, density=0.0)
        full = random_instance(rng, schema, 3, density=1.0)
        assert empty.is_empty()
        assert is_critical(full)

    def test_random_model_satisfies(self, rng):
        schema = random_schema(rng, relations=2, max_arity=2)
        tgds = random_tgd_set(rng, schema, 2, cls=TGDClass.FULL)
        model = random_model(rng, schema, tgds, 3)
        assert model is not None
        assert all(t.satisfied_by(model) for t in tgds)


class TestScenarios:
    def test_all_scenarios_load(self):
        scenarios = all_scenarios()
        assert len(scenarios) == 7
        assert len({s.name for s in scenarios}) == 7

    def test_samples_match_schemas(self):
        for scenario in all_scenarios():
            assert scenario.sample.schema == scenario.schema
            for tgd in scenario.tgds:
                assert tgd.schema <= scenario.schema

    def test_university_is_linear(self):
        scenario = university_linear()
        assert all(t.is_linear for t in scenario.tgds)

    def test_company_is_guarded_not_linear(self):
        scenario = company_guarded()
        assert all(t.is_guarded for t in scenario.tgds)
        assert any(not t.is_linear for t in scenario.tgds)

    def test_family_is_frontier_guarded_not_guarded(self):
        scenario = family_frontier_guarded()
        assert all(t.is_frontier_guarded for t in scenario.tgds)
        assert any(not t.is_guarded for t in scenario.tgds)

    def test_triangle_is_full(self):
        assert all(t.is_full for t in triangle_full().tgds)

    def test_example_5_2_matches_paper(self, example_52_tgd):
        scenario = example_5_2()
        assert scenario.tgds == (example_52_tgd,)
        assert example_52_tgd.satisfied_by(scenario.sample)

    def test_scenarios_chase_their_samples(self):
        for scenario in all_scenarios():
            budget = None if is_weakly_acyclic(scenario.tgds) else 4
            result = chase(scenario.sample, scenario.tgds, max_rounds=budget)
            assert not result.failed
            assert scenario.sample.is_subset_of(result.instance)


    def test_library_scenario_weakly_acyclic(self):
        assert is_weakly_acyclic(library_weakly_acyclic().tgds)

    def test_social_scenario_diverges(self):
        scenario = social_non_terminating()
        assert not is_weakly_acyclic(scenario.tgds)
        result = chase(scenario.sample, scenario.tgds, max_rounds=3)
        assert not result.terminated

    def test_social_scenario_still_fo_rewritable(self):
        from repro.omqa import CQ, rewrite_ucq

        scenario = social_non_terminating()
        query = CQ.parse("x <- Active(x)", scenario.schema)
        result = rewrite_ucq(query, scenario.tgds)
        assert result.complete
