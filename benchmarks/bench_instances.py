"""Engine bench — instance algebra: construction, restriction,
neighbourhood enumeration, and bounded instance-space generation."""

import pytest

from repro import Instance, Schema
from repro.instances import (
    all_instances_up_to,
    critical_instance,
    m_neighbourhood,
    subinstances_with_adom_at_most,
)
from repro.workloads import random_instance, random_schema
from tests.oracles.critical import is_critical

SCHEMA = Schema.of(("E", 2), ("P", 1))


@pytest.mark.parametrize("size", [8, 16, 32])
def test_construction(benchmark, rng, size):
    instance = benchmark(random_instance, rng, SCHEMA, size, 0.3)
    assert len(instance.domain) == size


@pytest.mark.parametrize("k", [2, 3, 4])
def test_critical_instance_construction(benchmark, k):
    crit = benchmark(critical_instance, SCHEMA, k)
    assert is_critical(crit)


@pytest.mark.parametrize("size", [8, 16])
def test_restriction(benchmark, rng, size):
    instance = random_instance(rng, SCHEMA, size, 0.3)
    half = frozenset(list(instance.domain)[: size // 2])
    sub = benchmark(instance.restrict, half)
    assert sub.is_subinstance_of(instance)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bounded_subinstance_enumeration(benchmark, rng, n):
    instance = random_instance(rng, SCHEMA, 6, 0.4)
    count = benchmark(
        lambda: sum(1 for __ in subinstances_with_adom_at_most(instance, n))
    )
    assert count >= 1


@pytest.mark.parametrize("m", [1, 2])
def test_neighbourhood_enumeration(benchmark, rng, m):
    instance = random_instance(rng, SCHEMA, 6, 0.5)
    focus = frozenset(list(instance.active_domain)[:1])
    count = benchmark(
        lambda: sum(1 for __ in m_neighbourhood(instance, focus, m))
    )
    assert count >= 1


@pytest.mark.parametrize("bound", [1, 2])
def test_instance_space_generation(benchmark, bound):
    schema = Schema.of(("P", 1), ("Q", 1))
    count = benchmark(
        lambda: sum(1 for __ in all_instances_up_to(schema, bound))
    )
    assert count > 0
