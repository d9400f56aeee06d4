"""The chase, stream ingest and the query path pause the cyclic
collector and restore it.

:func:`repro.chase.engine.chase`,
:func:`repro.instances.streaming.instance_from_stream`,
:meth:`repro.omqa.cq.CQ.evaluate` and
:func:`repro.omqa.rewriting.rewrite_ucq` run with the cyclic garbage
collector off (``repro.collector.pauses_collector``).  Whatever way a
call ends — a fixpoint, a budget, a failed constraint, a monitor stop,
an exception from a hook or from the input — the collector must be
back in the state it had at entry, and a collector that was already
off must stay off.
"""

from __future__ import annotations

import gc

import pytest

from repro import Schema, chase, parse_dependency, parse_tgds
from repro.chase import ChaseMonitorStop, StopReason
from repro.instances import Instance
from repro.instances.streaming import FactStreamError, instance_from_stream
from repro.lang import Const, parse_facts
from repro.lang.schema import SchemaError
from repro.omqa import cq as cq_module
from repro.omqa import rewriting as rewriting_module
from repro.omqa.cq import CQ
from repro.omqa.rewriting import rewrite_ucq

SCHEMA = Schema.of(("R", 2), ("S", 1))


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector_at_entry(request):
    """Set the collector's state for the test; put it back afterwards."""
    was_enabled = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    try:
        yield request.param
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def _instance(text: str) -> Instance:
    return Instance.from_facts(SCHEMA, parse_facts(text, SCHEMA))


def _rules(*texts: str) -> list:
    return [parse_dependency(text, SCHEMA) for text in texts]


ENDLESS = ("R(x, y) -> exists z . R(y, z)",)

STOPS = {
    StopReason.FIXPOINT: (
        "R(a, b). R(b, c)", ("R(x, y) -> S(y)",), {},
    ),
    StopReason.ROUND_BUDGET: ("R(a, b)", ENDLESS, {"max_rounds": 3}),
    StopReason.FACT_BUDGET: ("R(a, b)", ENDLESS, {"max_facts": 4}),
    StopReason.EGD_FAILURE: (
        "R(a, b). R(a, c)", ("R(x, y), R(x, z) -> y = z",), {},
    ),
    StopReason.DENIAL_VIOLATION: (
        "R(a, b). R(b, a)", ("R(x, y), R(y, x) -> false",), {},
    ),
}


class TestChaseRestoresTheCollector:
    @pytest.mark.parametrize("reason", sorted(STOPS))
    def test_every_stop_reason(self, collector_at_entry, reason):
        data, rules, budgets = STOPS[reason]
        result = chase(_instance(data), _rules(*rules), **budgets)
        assert result.stop_reason == reason
        assert gc.isenabled() is collector_at_entry

    def test_monitor_stop(self, collector_at_entry):
        def inventor(tgd, variable, assignment):
            raise ChaseMonitorStop(variable.name)

        result = chase(
            _instance("R(a, b)"), _rules(*ENDLESS), inventor=inventor
        )
        assert result.stop_reason == StopReason.MONITOR
        assert gc.isenabled() is collector_at_entry

    def test_exception_from_on_fire(self, collector_at_entry):
        class HookError(Exception):
            pass

        def on_fire(tgd, trigger, added):
            raise HookError

        with pytest.raises(HookError):
            chase(
                _instance("R(a, b)"), _rules(*ENDLESS), max_rounds=3,
                on_fire=on_fire,
            )
        assert gc.isenabled() is collector_at_entry

    def test_on_fire_sees_the_collector_off(self, collector_at_entry):
        seen = []
        result = chase(
            _instance("R(a, b)"), _rules(*ENDLESS), max_rounds=3,
            on_fire=lambda tgd, trigger, added: seen.append(gc.isenabled()),
        )
        assert result.fired == len(seen) == 3
        assert not any(seen)
        assert gc.isenabled() is collector_at_entry

    def test_nested_chase_in_on_fire(self, collector_at_entry):
        inner = []

        def on_fire(tgd, trigger, added):
            nested = chase(
                _instance("R(a, b). R(b, c)"), _rules("R(x, y) -> S(y)")
            )
            inner.append((nested.stop_reason, gc.isenabled()))

        chase(
            _instance("R(a, b)"), _rules(*ENDLESS), max_rounds=2,
            on_fire=on_fire,
        )
        # the nested call left the outer run's pause in place
        assert inner == [(StopReason.FIXPOINT, False)] * 2
        assert gc.isenabled() is collector_at_entry


class TestIngestRestoresTheCollector:
    def _write(self, path, rows: list[str]) -> None:
        path.write_text(
            '#repro-factstream v1 {"schema": {"R": 2, "S": 1}}\n'
            + "".join(row + "\n" for row in rows)
        )

    def test_complete_file(self, tmp_path, collector_at_entry):
        path = tmp_path / "good.facts"
        self._write(path, [f"R\ta{i}\tb{i}" for i in range(100)])
        instance = instance_from_stream(path, batch_size=16)
        assert len(instance.tuples("R")) == 100
        assert gc.isenabled() is collector_at_entry

    def test_error_partway_through_the_file(
        self, tmp_path, collector_at_entry
    ):
        path = tmp_path / "bad.facts"
        rows = [f"R\ta{i}\tb{i}" for i in range(100)]
        self._write(path, rows + ["S\ta\tb"] + rows)
        with pytest.raises(FactStreamError, match=r":102: "):
            instance_from_stream(path, batch_size=16)
        assert gc.isenabled() is collector_at_entry

    def test_rows_are_read_with_the_collector_off(self, collector_at_entry):
        seen = []

        def rows():
            for fact in parse_facts("S(a). S(b). S(c)", SCHEMA):
                seen.append(gc.isenabled())
                yield fact.relation, fact.elements

        instance = instance_from_stream(rows(), schema=SCHEMA, batch_size=2)
        assert len(instance.tuples("S")) == 3
        assert seen == [False] * 3
        assert gc.isenabled() is collector_at_entry


LINEAR = ("R(x, y) -> S(x)", "S(x) -> exists z . R(x, z)")


class TestQueryPathRestoresTheCollector:
    def test_evaluate(self, collector_at_entry):
        query = CQ.parse("x <- R(x, y), S(y)", SCHEMA)
        answers = query.evaluate(_instance("R(a, b). S(b). R(c, d)"))
        assert answers == {(Const("a"),)}
        assert gc.isenabled() is collector_at_entry

    def test_evaluate_raising(self, collector_at_entry):
        query = CQ.parse("x <- R(x)")
        with pytest.raises(SchemaError):
            query.evaluate(_instance("R(a, b)"))
        assert gc.isenabled() is collector_at_entry

    def test_evaluate_joins_with_the_collector_off(
        self, collector_at_entry, monkeypatch
    ):
        seen = []
        join = cq_module.all_extensions_of

        def recording(*args, **kwargs):
            seen.append(gc.isenabled())
            return join(*args, **kwargs)

        monkeypatch.setattr(cq_module, "all_extensions_of", recording)
        CQ.parse("x <- R(x, y)", SCHEMA).evaluate(_instance("R(a, b)"))
        assert seen == [False]
        assert gc.isenabled() is collector_at_entry

    def test_rewrite_ucq(self, collector_at_entry, monkeypatch):
        seen = []
        step = rewriting_module._one_step_rewritings

        def recording(*args, **kwargs):
            seen.append(gc.isenabled())
            return step(*args, **kwargs)

        monkeypatch.setattr(rewriting_module, "_one_step_rewritings", recording)
        result = rewrite_ucq(
            CQ.parse("x <- S(x)", SCHEMA), parse_tgds("\n".join(LINEAR), SCHEMA)
        )
        assert result.complete and len(result.ucq) == 2
        assert seen and not any(seen)
        assert gc.isenabled() is collector_at_entry

    def test_rewrite_ucq_raising(self, collector_at_entry):
        with pytest.raises(ValueError, match="linear"):
            rewrite_ucq(
                CQ.parse("x <- S(x)", SCHEMA),
                parse_tgds("R(x, y), S(y) -> S(x)", SCHEMA),
            )
        assert gc.isenabled() is collector_at_entry
