"""The restricted chase decides activity once per frontier binding per
sweep.

An existential tgd ``φ(x̄, ȳ) → ∃z̄ ψ(x̄, z̄)`` is active on a trigger
exactly when ``ψ`` has no extension of the trigger's binding of the
frontier ``x̄``.  Within one sweep of the tgd the state only grows, so
once one trigger with a binding is probed (and, if active, fired), every
later trigger of the sweep with that binding is not active.  A sweep of
:func:`repro.chase.chase` therefore hands its firing loop only the first
body match of each binding.  These tests pin what that must not change:

* ``TestProbeCount`` — a sweep hands over one trigger per distinct
  frontier binding of its body matches, and the engine's
  ``satisfies_atoms`` runs once per trigger handed over;
* ``TestAgainstReference`` — facts, rounds and the ordered firings,
  nulls included, equal those of the probe-every-trigger reference
  loop in ``tests/oracles/restricted.py`` on random existential sets
  whose bodies bind more variables than their frontiers;
* ``TestPinnedRuns`` — a keyed chase, a Skolem-inventor run, a fact
  budget that stops mid-sweep and an empty-frontier head keep the
  facts, ``fired``, ``nulls_created``, ``stop_reason``, ``rounds`` and
  ``on_fire`` trace recorded while every trigger was still probed.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager
from typing import Iterator

import pytest

from repro import Instance, Schema, chase, parse_tgds
from repro.analysis.semantic import skolem_functions
from repro.chase import ChaseMonitorStop, StopReason
from repro.chase import engine
from repro.perf.families import keys_instance as fan_in_keys_instance
from repro.workloads.random_instances import random_instance
from repro.workloads.random_tgds import random_schema, random_tgd
from tests.oracles.naive import EVALUATIONS, sweeps
from tests.oracles.restricted import activity_checked_chase
from tests.test_datalog_path import facts_by_name, recorded_chase
from tests.test_egd_repair import keys_instance, keys_rules

SCHEMA = Schema.of(("E", 2), ("F", 2), ("R", 2), ("A", 1), ("B", 1))
STAR_RULE = "E(x, y) -> exists z . R(y, z)"


def star_instance(targets: int, sources: int, extra: str = "") -> Instance:
    """``sources`` E-edges into each of ``targets`` targets."""
    facts = [
        f"E(s{t}_{s}, t{t})" for t in range(targets) for s in range(sources)
    ]
    return Instance.parse(". ".join(facts) + extra, SCHEMA)


class Counts:
    """Calls of the engine's activity probe and, summed over the sweeps
    of existential tgds, the distinct body matches the sweeps found,
    their distinct frontier bindings and the triggers the sweeps handed
    to the firing loop."""

    def __init__(self) -> None:
        self.calls = self.matches = self.bindings = self.triggers = 0


@contextmanager
def counted() -> Iterator[Counts]:
    """Count the engine's probes and existential sweeps inside the
    block (on whichever sweeps are in place when it is entered)."""
    counts = Counts()
    probe = engine.satisfies_atoms
    sweep = engine._sweep_triggers

    def counting_probe(*args, **kwargs):
        counts.calls += 1
        return probe(*args, **kwargs)

    def counting_sweep(state, dep, start, stop, per):
        if not dep.is_full:
            # Keyed on every body variable, a sweep keeps every match.
            matches = sweep(state, dep, start, stop, dep.universal_variables)
            counts.matches += len(matches)
            counts.bindings += len({
                tuple(match[v] for v in dep.frontier) for match in matches
            })
        triggers = sweep(state, dep, start, stop, per)
        if not dep.is_full:
            counts.triggers += len(triggers)
        return triggers

    engine.satisfies_atoms = counting_probe
    engine._sweep_triggers = counting_sweep
    try:
        yield counts
    finally:
        engine.satisfies_atoms = probe
        engine._sweep_triggers = sweep


@pytest.fixture
def probes():
    with counted() as counts:
        yield counts


class TestProbeCount:
    def test_one_probe_per_target_of_a_star(self, probes):
        deps = parse_tgds(STAR_RULE, SCHEMA)
        result = chase(star_instance(5, 4), deps)
        assert result.stop_reason == StopReason.FIXPOINT
        assert result.fired == 5
        assert probes.matches == 20
        assert probes.calls == probes.triggers == probes.bindings == 5

    def test_satisfied_targets_are_probed_once(self, probes):
        deps = parse_tgds(STAR_RULE, SCHEMA)
        result = chase(star_instance(5, 4, ". R(t0, c). R(t3, c)"), deps)
        assert result.fired == 3
        assert probes.calls == 5

    def test_the_rule_is_per_sweep(self, probes):
        """A binding met again in a later sweep is probed again."""
        deps = parse_tgds(STAR_RULE + "\nF(x, y) -> E(x, y)", SCHEMA)
        extra = ". F(u0, t0). F(u1, t0). F(u2, t1). F(u3, t9). F(u4, t9)"
        result = chase(star_instance(3, 4, extra), deps)
        assert result.stop_reason == StopReason.FIXPOINT
        # First sweep: t0, t1, t2.  Second: t0, t1 (satisfied) and t9.
        # The five F facts fire the full rule.
        assert result.fired == 4 + 5
        assert probes.matches == 12 + 5
        assert probes.calls == probes.triggers == probes.bindings == 6

    @pytest.mark.parametrize("evaluation", EVALUATIONS)
    def test_keyed_chase(self, evaluation):
        with sweeps(evaluation), counted() as probes:
            result = chase(keys_instance(2, 150), keys_rules())
        assert result.stop_reason == StopReason.FIXPOINT
        assert 0 < probes.calls == probes.triggers == probes.bindings
        assert probes.bindings < probes.matches

    def test_frontier_equal_to_the_body_variables(self, probes):
        """No two triggers share a binding: one probe per trigger."""
        deps = parse_tgds("E(x, y) -> exists z . R(y, z), F(x, z)", SCHEMA)
        chase(star_instance(3, 2), deps)
        assert probes.calls == probes.triggers == probes.matches == 6


def random_pruning_case(seed):
    """A random existential set, one of whose tgds has a frontier
    smaller than its body variables, and a small instance."""
    rng = random.Random(seed)
    schema = random_schema(rng, relations=rng.randint(2, 3), max_arity=3)
    shape = dict(
        body_atoms=2, head_atoms=2, body_variables=3, existential_variables=2
    )
    tgds = []
    for _ in range(200):
        tgd = random_tgd(rng, schema, **shape)
        if tgd.existential_variables and (
            len(tgd.frontier) < len(tgd.universal_variables)
        ):
            tgds.append(tgd)
            break
    else:
        return None
    for _ in range(rng.randint(0, 2)):
        tgds.append(random_tgd(rng, schema, **shape))
    instance = random_instance(rng, schema, rng.randint(3, 4), density=0.5)
    return instance, tgds


# A frontier of two of three body variables, (x, w): four triggers over
# three bindings, so three firings; keyed on x alone, one.
TWO_VARIABLE_FRONTIER = (
    "E(x, y), F(y, w) -> exists z . R(x, z), R(z, w)",
    "E(a, b). E(a, d). F(b, c). F(d, c). F(b, e). F(d, f)",
)


class TestAgainstReference:
    @staticmethod
    def assert_agrees(instance, deps, max_rounds=3):
        reference = activity_checked_chase(
            instance, deps, max_rounds=max_rounds
        )
        result, calls = recorded_chase(instance, deps, max_rounds=max_rounds)
        assert facts_by_name(result.instance) == reference.facts
        assert result.rounds == reference.rounds
        assert result.fired == reference.fired
        assert calls == reference.firings
        return result

    def test_two_variable_frontier(self):
        rule, facts = TWO_VARIABLE_FRONTIER
        result = self.assert_agrees(
            Instance.parse(facts, SCHEMA), parse_tgds(rule, SCHEMA)
        )
        assert result.fired == 3

    @pytest.mark.parametrize("seed", range(60))
    def test_random_sets(self, seed, probes):
        case = random_pruning_case(seed)
        if case is None:
            pytest.skip("schema cannot support requested tgd shape")
        self.assert_agrees(*case)
        assert probes.calls == probes.triggers == probes.bindings

    def test_the_random_sets_share_bindings(self, probes):
        """Most random cases repeat a frontier binding within a sweep,
        so the comparison above is not vacuous."""
        sharing = 0
        for seed in range(60):
            case = random_pruning_case(seed)
            if case is None:
                continue
            probes.matches = probes.bindings = 0
            chase(*case, max_rounds=3)
            sharing += probes.bindings < probes.matches
        assert sharing >= 30


def run_summary(instance, deps, **options) -> dict:
    """What a run pins: its stop reason, rounds, ``fired`` and
    ``nulls_created``, the number of facts and of ``on_fire`` calls,
    and digests of the sorted facts and of the ordered ``on_fire``
    trace."""
    trace = []

    def record(tgd, trigger, added):
        binding = sorted(f"{var}={value!r}" for var, value in trigger.items())
        facts = ", ".join(map(repr, added))
        trace.append(f"{tgd} | {', '.join(binding)} | {facts}")

    result = chase(instance, deps, on_fire=record, **options)
    facts = sorted(repr(fact) for fact in result.instance.facts())
    return {
        "stop": result.stop_reason,
        "rounds": result.rounds,
        "fired": result.fired,
        "nulls": result.nulls_created,
        "facts": len(facts),
        "calls": len(trace),
        "facts_digest": _digest(facts),
        "trace_digest": _digest(trace),
    }


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def skolem_inventor(deps, stop_after=None):
    """Skolem terms ``(f, *frontier)`` for every existential variable,
    as in the MFA check of :mod:`repro.analysis.semantic`; after
    ``stop_after`` inventions it aborts the run."""
    functions = skolem_functions(deps)
    made = [0]

    def invent(tgd, var, assignment):
        if stop_after is not None and made[0] >= stop_after:
            raise ChaseMonitorStop(var.name)
        made[0] += 1
        fn = functions[(tgd, var.name)]
        return (fn, *(assignment[v] for v in tgd.frontier))

    return invent


def pinned_cases():
    keyed = keys_rules()
    fan_in = fan_in_keys_instance()
    star = star_instance(6, 4, ". F(u0, t0). F(u1, t7). F(u2, t7)")
    star_deps = parse_tgds(
        STAR_RULE + "\nF(x, y) -> E(x, y)\nR(x, y) -> A(x)", SCHEMA
    )
    empty = star_instance(2, 3, ". A(a). A(b). A(c)")
    return {
        "keys": (keys_instance(2, 150), keyed, {}),
        "keys-fan-in": (fan_in, keyed, {}),
        "skolem": (star, star_deps, {"inventor": skolem_inventor(star_deps)}),
        "skolem-monitor-stop": (
            star, star_deps, {"inventor": skolem_inventor(star_deps, 4)}
        ),
        "fact-budget": (
            fan_in, keyed, {"max_facts": fan_in.fact_count() + 20}
        ),
        "empty-frontier": (
            empty, parse_tgds("A(x) -> exists z . B(z)", SCHEMA), {}
        ),
        "empty-frontier-satisfied": (
            Instance.parse("A(a). A(b). B(c)", SCHEMA),
            parse_tgds("A(x) -> exists z . B(z)", SCHEMA),
            {},
        ),
    }


class TestPinnedRuns:
    """Recorded while the engine probed every trigger."""

    PINNED = {
        "empty-frontier": {
            "stop": "fixpoint", "rounds": 2, "fired": 1, "nulls": 1,
            "facts": 10, "calls": 1,
            "facts_digest": "97163889be0af915",
            "trace_digest": "e4d1394217689b40",
        },
        "empty-frontier-satisfied": {
            "stop": "fixpoint", "rounds": 1, "fired": 0, "nulls": 0,
            "facts": 3, "calls": 0,
            "facts_digest": "fe9d30fb1cebea3d",
            "trace_digest": "e3b0c44298fc1c14",
        },
        "fact-budget": {
            "stop": "fact_budget", "rounds": 1, "fired": 21, "nulls": 21,
            "facts": 181, "calls": 21,
            "facts_digest": "91a9253ac01c0fe0",
            "trace_digest": "7054ed31e8cce54d",
        },
        "keys": {
            "stop": "fixpoint", "rounds": 3, "fired": 63, "nulls": 35,
            "facts": 184, "calls": 63,
            "facts_digest": "ba830b73ccddb321",
            "trace_digest": "6f5fd71d37496d92",
        },
        "keys-fan-in": {
            "stop": "fixpoint", "rounds": 3, "fired": 72, "nulls": 40,
            "facts": 200, "calls": 72,
            "facts_digest": "e10e4227b63c2648",
            "trace_digest": "fa1fb882ec18c6ec",
        },
        "skolem": {
            "stop": "fixpoint", "rounds": 3, "fired": 17, "nulls": 7,
            "facts": 44, "calls": 17,
            "facts_digest": "57cb584dc54ed3fa",
            "trace_digest": "68f9753d13837c63",
        },
        "skolem-monitor-stop": {
            "stop": "monitor", "rounds": 1, "fired": 4, "nulls": 4,
            "facts": 31, "calls": 4,
            "facts_digest": "2c558aedebf81d9e",
            "trace_digest": "f5780926e3dd9b70",
        },
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_run_is_pinned(self, name):
        instance, deps, options = pinned_cases()[name]
        assert run_summary(instance, deps, **options) == self.PINNED[name]
