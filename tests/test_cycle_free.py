"""The engine leaves no reference cycles behind.

The chase's working state is the target of every join it runs.  If an
execution left a cycle holding the target — a recursive closure that
refers to itself through its own cell does — the whole state (every
fact tuple, bucket set and element) would outlive the call until a
full cyclic collection, and every collection in between would walk it.
So each operation below runs with the cyclic collector off, and
``gc.collect()`` afterwards must find nothing to free: reference
counting alone releases everything.

The same invariant is what lets :func:`repro.chase.engine.chase`,
:func:`repro.instances.streaming.instance_from_stream`,
:meth:`repro.omqa.cq.CQ.evaluate` and
:func:`repro.omqa.rewriting.rewrite_ucq` pause the collector for their
whole run (``repro.collector.pauses_collector``):
a cycle they made would outlive the call and stay unreclaimed until
some later collection.
"""

from __future__ import annotations

import gc

import pytest

from repro import Schema, chase, parse_dependency, parse_tgds
from repro.homomorphisms.search import all_extensions_of, find_extension
from repro.instances.streaming import FactStreamWriter, instance_from_stream
from repro.lang import Var
from repro.omqa.cq import CQ
from repro.omqa.rewriting import rewrite_ucq
from repro.rewriting import RewriteStatus, guarded_to_linear

from tests.test_egd_repair import KEYS_SCHEMA, keys_instance, keys_rules

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
class TestCycleFree:
    def test_restricted_chase_with_key_egd(self):
        instance = keys_instance(3, 600)

        def run():
            result = chase(instance, keys_rules())
            assert result.successful and result.nulls_created

        assert _cyclic_garbage(run) == 0

    def test_full_tgd_chase(self):
        instance = keys_instance(5, 2000)
        rules = [parse_dependency(rule, KEYS_SCHEMA) for rule in FULL_RULES]

        def run():
            result = chase(instance, rules)
            assert result.successful and result.fired

        assert _cyclic_garbage(run) == 0

    def test_find_extension_stopping_at_first_match(self):
        instance = keys_instance(7, 600)
        x, y, z = Var("x"), Var("y"), Var("z")
        body = parse_dependency(FULL_RULES[0], KEYS_SCHEMA).body

        def run():
            match = find_extension(body, instance)
            assert match is not None and set(match) == {x, y, z}

        assert _cyclic_garbage(run) == 0

    def test_consumed_extensions_over_an_instance(self):
        instance = keys_instance(11, 600)
        body = parse_dependency(FULL_RULES[1], KEYS_SCHEMA).body

        def run():
            matches = list(all_extensions_of(body, instance))
            assert matches

        assert _cyclic_garbage(run) == 0

    def test_instance_from_stream(self, tmp_path):
        instance = keys_instance(13, 3000)
        path = tmp_path / "keys.facts"
        with FactStreamWriter(path, KEYS_SCHEMA, batch_size=256) as writer:
            for fact in instance.facts():
                writer.write(fact.relation, fact.elements)

        def run():
            assert instance_from_stream(path, batch_size=512) == instance

        assert _cyclic_garbage(run) == 0

    def test_guarded_to_linear(self):
        # Algorithm 1 on an already linear pair with no termination
        # certificate: every candidate's entailment chases its budget.
        schema = Schema.of(("P", 1), ("R", 2))
        source = parse_tgds(
            "P(x) -> exists z . R(x, z)\nR(x, y) -> P(y)", schema
        )

        def run():
            result = guarded_to_linear(source, schema=schema)
            assert result.status == RewriteStatus.SUCCESS

        assert _cyclic_garbage(run) == 0

    def test_cq_evaluate_building_the_position_indexes(self):
        # A fresh instance: the evaluation builds its lazy indexes.
        query = CQ.parse("x, z <- L0(x, y), L1(y, z)", KEYS_SCHEMA)

        def run():
            assert query.evaluate(keys_instance(17, 3000))

        assert _cyclic_garbage(run) == 0

    def test_rewrite_ucq(self):
        schema = Schema.of(("A", 1), ("B", 1), ("R", 2), ("S", 2))
        tgds = parse_tgds(
            "A(x) -> exists z . R(x, z)\nR(x, y) -> B(y)\n"
            "R(x, y) -> S(y, x)\nS(x, y) -> A(y)",
            schema,
        )
        query = CQ.parse("x <- S(y, x), A(x)", schema)

        def run():
            result = rewrite_ucq(query, tgds)
            assert result.complete and len(result.ucq) > 1

        assert _cyclic_garbage(run) == 0
