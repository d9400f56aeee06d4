"""Stop-reason self-consistency: a ``ChaseResult``'s flags, its
``stop_reason`` and its instance must tell the same story, whatever
stopped the run.

Seeded random scenarios (tgds with egds and denial constraints mixed
in) are chased under round and fact budgets and under a
monitoring inventor, through :func:`chase` and
through :func:`traced_chase` (which takes no egds).  For every run:

* the input facts (constants only, so no egd merge can rename them)
  are still in the result;
* ``FIXPOINT`` holds exactly when the run is ``successful``;
* an egd clash or a denial violation means ``failed and terminated``;
* a budget or monitor stop means neither ``terminated`` nor ``failed``.
"""

from __future__ import annotations

import random

import pytest

from repro.chase import ChaseMonitorStop, StopReason, chase, traced_chase
from repro.dependencies.egd import EGD
from repro.lang.terms import FreshNulls
from tests.test_differential_chase import _random_scenario

SEEDS = range(5000, 5080)
BUDGET_STOPS = (
    StopReason.ROUND_BUDGET, StopReason.FACT_BUDGET, StopReason.MONITOR,
)


def _monitor(limit: int):
    """An inventor that invents fresh nulls and stops the run at its
    ``limit``-th invention."""
    nulls = FreshNulls()
    count = [0]

    def invent(tgd, var, assignment):
        count[0] += 1
        if count[0] >= limit:
            raise ChaseMonitorStop(var.name)
        return nulls()

    return invent


def _options(seed: int) -> dict:
    """Per-seed budgets: a mix of none, round, fact, no-growth and
    monitor stops."""
    rng = random.Random(seed)
    options: dict = {}
    kind = rng.choice(("none", "rounds", "facts", "no-growth", "monitor"))
    if kind == "rounds":
        options["max_rounds"] = rng.randint(0, 3)
    elif kind == "facts":
        options["max_facts"] = rng.randint(1, 12)
    elif kind == "no-growth":
        # The first fact a firing adds is past the budget.
        options["max_facts"] = 0
    elif kind == "monitor":
        options["inventor"] = _monitor(rng.randint(1, 3))
    options.setdefault("max_rounds", 6)
    options.setdefault("max_facts", 200)
    return options


def _scenario(seed: int):
    return _random_scenario(
        seed, with_egds=seed % 2 == 0, with_denials=seed % 3 == 0
    )


def assert_consistent(instance, result) -> None:
    reason = result.stop_reason
    assert reason in StopReason.ALL
    assert set(instance.facts()) <= set(result.instance.facts())
    assert (reason == StopReason.FIXPOINT) == result.successful
    if reason in (StopReason.EGD_FAILURE, StopReason.DENIAL_VIOLATION):
        assert result.failed and result.terminated
    if reason in BUDGET_STOPS:
        assert not result.terminated and not result.failed


def _run(seed: int, traced: bool):
    scenario = _scenario(seed)
    if scenario is None:
        return None
    instance, deps = scenario
    if traced:
        deps = [dep for dep in deps if not isinstance(dep, EGD)]
        result = traced_chase(instance, deps, **_options(seed)).result
    else:
        result = chase(instance, deps, **_options(seed))
    assert_consistent(instance, result)
    return result.stop_reason


@pytest.mark.parametrize("traced", [False, True], ids=["chase", "traced"])
def test_stop_reasons_are_self_consistent(traced):
    reasons = {_run(seed, traced) for seed in SEEDS}
    reasons.discard(None)
    # The sweep must reach every kind of stop, not just fixpoints.
    expected = set(StopReason.ALL)
    if traced:
        expected.discard(StopReason.EGD_FAILURE)
    assert reasons == expected
