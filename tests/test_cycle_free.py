"""The engine leaves no reference cycles behind.

The chase's working state is the target of every join it runs.  If an
execution left a cycle holding the target — a recursive closure that
refers to itself through its own cell does — the whole state (every
fact tuple, bucket set and element) would outlive the call until a
full cyclic collection, and every collection in between would walk it.
So each operation below runs with the cyclic collector off, and
``gc.collect()`` afterwards must find nothing to free: reference
counting alone releases everything, on both backends.
"""

from __future__ import annotations

import gc

import pytest

from repro import chase, parse_dependency
from repro.homomorphisms.search import all_extensions_of, find_extension
from repro.lang import Var

from tests.test_egd_repair import KEYS_SCHEMA, keys_instance, keys_rules

BACKENDS = ("object", "columnar")

FULL_RULES = (
    "L0(x, y), L1(y, z) -> L0(x, z)",
    "L1(x, y), L2(y, z) -> L1(x, z)",
)


@pytest.fixture
def collector_off():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _cyclic_garbage(operation) -> int:
    """Objects the cyclic collector frees after ``operation`` runs."""
    gc.collect()
    operation()
    return gc.collect()


@pytest.mark.usefixtures("collector_off")
@pytest.mark.parametrize("backend", BACKENDS)
class TestCycleFree:
    def test_restricted_chase_with_key_egd(self, backend):
        instance = keys_instance(3, 600).with_backend(backend)

        def run():
            result = chase(instance, keys_rules(), backend=backend)
            assert result.successful and result.nulls_created

        assert _cyclic_garbage(run) == 0

    def test_full_tgd_chase(self, backend):
        instance = keys_instance(5, 2000).with_backend(backend)
        rules = [parse_dependency(rule, KEYS_SCHEMA) for rule in FULL_RULES]

        def run():
            result = chase(instance, rules, backend=backend)
            assert result.successful and result.fired

        assert _cyclic_garbage(run) == 0

    def test_find_extension_stopping_at_first_match(self, backend):
        instance = keys_instance(7, 600).with_backend(backend)
        x, y, z = Var("x"), Var("y"), Var("z")
        body = parse_dependency(FULL_RULES[0], KEYS_SCHEMA).body

        def run():
            match = find_extension(body, instance)
            assert match is not None and set(match) == {x, y, z}

        assert _cyclic_garbage(run) == 0

    def test_consumed_extensions_over_an_instance(self, backend):
        instance = keys_instance(11, 600).with_backend(backend)
        body = parse_dependency(FULL_RULES[1], KEYS_SCHEMA).body

        def run():
            matches = list(all_extensions_of(body, instance))
            assert matches

        assert _cyclic_garbage(run) == 0
