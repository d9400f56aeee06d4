"""The chase's Datalog path and the contracts that make it safe.

A full tgd is a Datalog rule: its restricted chase is the least
fixpoint, and a trigger is active exactly when adding its head image
adds a fact.  :func:`repro.chase.chase` therefore fires a full tgd's
triggers without an activity probe and counts a firing only when it
added something.  These tests pin what that must not change:

* ``TestNoActivityProbe`` — a restricted chase over full tgds never
  calls ``satisfies_atoms``; an existential head still does;
* ``TestAgainstReference`` — ``fired``, the facts, the rounds and every
  ``on_fire`` call equal those of the activity-checking reference loop
  in ``tests/oracles/restricted.py``, on a partially satisfied
  multi-atom head and on random rule sets;
* ``TestOblivious`` — oblivious re-firings still reach ``on_fire``,
  with no added facts;
* ``TestSnapshotInvariants`` — every chase result, built without
  re-validation, passes the checked ``Instance(...)`` constructor over
  the differential grid's scenarios;
* ``TestHashSeedIndependence`` — results, firing traces and every
  tracked counter are the same under ``PYTHONHASHSEED`` 0, 1 and 2,
  although the engine's full sweeps iterate hash-ordered buckets.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import Instance, Schema, chase, parse_dependency, parse_tgds
from repro.chase import StopReason
from repro.chase import engine
from repro.dependencies import TGDClass
from repro.workloads.random_instances import random_instance
from repro.workloads.random_tgds import random_schema, random_tgd_set
from repro.workloads.scenarios import all_scenarios
from tests.oracles.naive import EVALUATIONS, sweeps
from tests.oracles.restricted import activity_checked_chase
from tests.test_differential_chase import MAX_FACTS, MAX_ROUNDS, _random_scenario
from tests.test_egd_repair import run_under_hash_seeds

SCHEMA = Schema.of(("E", 2), ("P", 1), ("Q", 1), ("R", 2))

# ``E(x, y) -> P(x), Q(y)`` meets heads that are already whole (a, b),
# half there (a, c) and (d, b), or missing (d, e); the other rules feed
# it in later rounds and give it a two-atom body to join.
PARTIAL_RULES = (
    "E(x, y) -> P(x), Q(y)\n"
    "Q(x), P(y) -> R(y, x)\n"
    "R(x, y), E(y, z) -> E(x, z), P(z)\n"
)
PARTIAL_FACTS = "E(a, b). E(a, c). E(d, b). E(d, e). P(a). Q(b)"

def partial_case():
    return (
        Instance.parse(PARTIAL_FACTS, SCHEMA),
        parse_tgds(PARTIAL_RULES, SCHEMA),
    )


def recorded_chase(instance, deps, evaluation="seminaive", **options):
    """``chase`` with an ``on_fire`` recorder, on the engine's sweeps or
    (``evaluation="naive"``) the naive oracle's: (result, calls)."""
    calls = []
    with sweeps(evaluation, options.get("variant", "restricted")):
        result = chase(
            instance, deps,
            on_fire=lambda tgd, trigger, added: calls.append(
                (tgd, dict(trigger), added)
            ),
            **options,
        )
    return result, calls


def facts_by_name(instance):
    return {
        rel.name: set(instance.tuples(rel))
        for rel in instance.schema
        if instance.tuples(rel)
    }


def random_full_case(seed):
    """A random full-tgd set with multi-atom heads and a small
    instance, or ``None`` when the schema cannot carry the shape."""
    rng = random.Random(seed)
    schema = random_schema(rng, relations=rng.randint(2, 4), max_arity=2)
    try:
        tgds = random_tgd_set(
            rng, schema, rng.randint(1, 4), cls=TGDClass.FULL,
            body_atoms=2, head_atoms=3, body_variables=3,
        )
    except ValueError:
        return None
    return random_instance(rng, schema, rng.randint(3, 5), density=0.5), tgds


class TestNoActivityProbe:
    @pytest.fixture
    def no_probes(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("activity probe on a full tgd")

        monkeypatch.setattr(engine, "satisfies_atoms", forbidden)

    @pytest.mark.parametrize("evaluation", EVALUATIONS)
    def test_full_tgds_fire_without_probe(self, no_probes, evaluation):
        instance, deps = partial_case()
        result, calls = recorded_chase(instance, deps, evaluation)
        assert result.stop_reason == StopReason.FIXPOINT
        assert result.fired == len(calls) > 0
        # Only firings that added a fact count.
        assert all(added for _tgd, _trigger, added in calls)

    def test_existential_heads_still_probe(self, no_probes):
        """The patched name is the one the engine calls."""
        instance, _deps = partial_case()
        deps = parse_tgds("E(x, y) -> exists z . R(y, z)", SCHEMA)
        with pytest.raises(AssertionError, match="activity probe"):
            chase(instance, deps)


class TestAgainstReference:
    @pytest.mark.parametrize("evaluation", EVALUATIONS)
    def test_partially_satisfied_head(self, evaluation):
        instance, deps = partial_case()
        reference = activity_checked_chase(instance, deps)
        result, calls = recorded_chase(instance, deps, evaluation)
        assert result.fired == reference.fired
        assert result.rounds == reference.rounds
        assert facts_by_name(result.instance) == reference.facts
        assert calls == reference.firings
        # The half-satisfied heads added only their missing atom.
        first_rule = deps[0]
        added = {
            tuple(str(fact) for fact in facts)
            for tgd, _trigger, facts in calls if tgd == first_rule
        }
        assert ("Q(c)",) in added and ("P(d)",) in added

    @pytest.mark.parametrize("seed", range(40))
    def test_random_full_sets(self, seed):
        case = random_full_case(seed)
        if case is None:
            pytest.skip("schema cannot support requested tgd shape")
        instance, deps = case
        reference = activity_checked_chase(instance, deps)
        assert reference.terminated
        for evaluation in EVALUATIONS:
            result, calls = recorded_chase(instance, deps, evaluation)
            label = evaluation
            assert result.stop_reason == StopReason.FIXPOINT, label
            assert result.fired == reference.fired, label
            assert result.rounds == reference.rounds, label
            assert facts_by_name(result.instance) == reference.facts, label
            assert calls == reference.firings, label

    @pytest.mark.parametrize("seed", range(30))
    def test_random_existential_sets(self, seed):
        """The existential path keeps its probe and the same firings,
        nulls included."""
        scenario = _random_scenario(seed)
        if scenario is None:
            pytest.skip("schema cannot support requested tgd shape")
        instance, deps = scenario
        reference = activity_checked_chase(instance, deps, max_rounds=3)
        result, calls = recorded_chase(instance, deps, max_rounds=3)
        assert result.fired == reference.fired
        assert result.nulls_created == sum(
            len(tgd.existential_variables)
            for tgd, _trigger, _added in reference.firings
        )
        assert facts_by_name(result.instance) == reference.facts
        assert calls == reference.firings


class TestOblivious:
    def test_refirings_reach_the_hook_empty(self):
        instance = Instance.parse("E(a, b). E(a, c). P(d). E(d, a)", SCHEMA)
        deps = parse_tgds("E(x, y) -> P(x)", SCHEMA)
        for evaluation in EVALUATIONS:
            result, calls = recorded_chase(
                instance, deps, evaluation, variant="oblivious"
            )
            # Every trigger fires once: (a, b) adds P(a), (a, c) finds
            # it there, and (d, a) finds P(d) in the input.
            assert result.fired == len(calls) == 3
            assert [len(added) for _tgd, _trigger, added in calls] == [1, 0, 0]
            assert facts_by_name(result.instance)["P"] == set(
                Instance.parse("P(a). P(d)", SCHEMA).tuples("P")
            )


def grid_runs():
    """(label, instance, dependencies, chase options) for the
    differential grid's scenario kinds."""
    kinds = [
        ("restricted", {}, range(0, 120, 6)),
        ("egds", {"with_egds": True}, range(1000, 1040, 2)),
        ("denials", {"with_denials": True}, range(2000, 2030, 2)),
        ("egds+denials", {"with_egds": True, "with_denials": True},
         range(3000, 3020, 2)),
    ]
    for label, flags, seeds in kinds:
        for seed in seeds:
            scenario = _random_scenario(seed, **flags)
            if scenario is not None:
                yield f"{label}-{seed}", *scenario, {}
    for seed in range(0, 40, 4):
        scenario = _random_scenario(seed)
        if scenario is not None:
            instance, deps = scenario
            yield f"oblivious-{seed}", instance, deps, {"variant": "oblivious"}
    for scenario in all_scenarios():
        yield scenario.name, scenario.sample, scenario.tgds, {}


class TestSnapshotInvariants:
    @pytest.mark.parametrize("evaluation", EVALUATIONS)
    def test_results_revalidate(self, evaluation):
        checked = 0
        for label, instance, deps, options in grid_runs():
            with sweeps(evaluation, options.get("variant", "restricted")):
                result = chase(
                    instance, deps,
                    max_rounds=MAX_ROUNDS, max_facts=MAX_FACTS, **options,
                )
            snapshot = result.instance
            rebuilt = Instance(
                snapshot.schema,
                snapshot.domain,
                {rel: snapshot.tuples(rel) for rel in snapshot.schema},
            )
            assert rebuilt == snapshot, label
            assert isinstance(snapshot.domain, frozenset), label
            assert all(
                isinstance(snapshot.tuples(rel), frozenset)
                for rel in snapshot.schema
            ), label
            checked += 1
        assert checked >= 80

    def test_merged_results_revalidate(self):
        """An egd merge drops the merged null from the domain."""
        schema = Schema.of(("E", 2), ("F", 1), ("G", 2))
        deps = [
            parse_dependency(rule, schema) for rule in (
                "F(x) -> exists z . G(x, z)",
                "G(x, y) -> E(x, y)",
                "E(x, y), E(x, z) -> y = z",
            )
        ]
        instance = Instance.parse("E(a, b). F(a). F(c)", schema)
        result = chase(instance, deps)
        snapshot = result.instance
        assert result.stop_reason == StopReason.FIXPOINT
        assert result.nulls_created == 2
        # The null invented for a was merged into b; c keeps its own.
        assert len(snapshot.domain) == 4
        assert Instance(
            schema, snapshot.domain, {rel: snapshot.tuples(rel) for rel in schema}
        ) == snapshot


_SEED_SCRIPT = """
import json
from repro import Instance, Schema, chase, parse_dependency, parse_tgds
from repro.perf.compare import TRACKED_COUNTERS
from repro.perf.families import KEYS_RULES, keys_instance
from repro.telemetry import TELEMETRY

schema = Schema.of(("E", 2), ("R", 2), ("S", 2), ("P", 1), ("Q", 1))
edges = sorted(
    {(i, (3 * i + 1) % 13) for i in range(13)}
    | {(i, (5 * i + 2) % 13) for i in range(0, 13, 2)}
)
# Every v_j has two R-successors, u_j and w_j; only w_j leads back (S)
# to some of v_j's E-predecessors.  The S facts of the z_k make S the
# larger relation, so the existential head's probe starts at R(v_j, ?):
# a bucket of two, on one of which it succeeds.
facts = (
    [f"E(v{i}, v{j})" for i, j in edges]
    + [f"R(v{j}, {kind}{j})" for j in range(13) for kind in "uw"]
    + [f"S(w{j}, v{i})" for i, j in edges if i % 3]
    + [f"S(z{k}, v{k % 13})" for k in range(40)]
    + ["P(v1)", "Q(v4)"]
)
instance = Instance.parse(". ".join(facts), schema)
CASES = {
    # A full-tgd fixpoint with a partially satisfied two-atom head.
    "full": parse_tgds(
        "E(x, y) -> P(x), Q(y)\\n"
        "E(x, y), E(y, z) -> R(x, z)\\n"
        "R(x, y), Q(y) -> S(y, x), P(y)", schema
    ),
    # A two-atom existential head: its activity probe stops at the first
    # extension, so its counters follow the order it walks buckets in.
    "existential": parse_tgds(
        "E(x, y) -> exists w . R(y, w), S(w, x)", schema
    ),
    # Two constants forced equal: the failing repair pass.
    "egd-failure": [parse_dependency("E(x, y), E(x, z) -> y = z", schema)],
    # Full heads that drop body variables: a sweep keeps the first of
    # many body matches per binding, whatever order the buckets hold.
    "projected-full": parse_tgds(
        "E(x, y), E(y, z) -> P(x)\\n"
        "E(x, y), R(y, w) -> Q(w)\\n"
        "S(w, x), E(x, y) -> R(y, x)", schema
    ),
}
CASES = {name: (instance, deps) for name, deps in CASES.items()}
# Existential triggers that share frontier bindings four at a time, a
# full rule and a key egd: the activity probe runs once per binding.
CASES["keys-fan-in"] = (
    keys_instance(), [parse_dependency(rule) for rule in KEYS_RULES]
)
out = {}
for name, (instance, deps) in CASES.items():
    trace = []
    TELEMETRY.reset()
    TELEMETRY.enable(spans=False)
    try:
        result = chase(
            instance, deps, max_rounds=6,
            on_fire=None if name == "egd-failure" else (
                lambda tgd, trigger, added: trace.append([
                    str(tgd),
                    sorted(f"{var}={value}" for var, value in trigger.items()),
                    [str(fact) for fact in added],
                ])
            ),
        )
        counters = TELEMETRY.snapshot()
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    out[name] = {
        "stop": result.stop_reason,
        "rounds": result.rounds,
        "fired": result.fired,
        "nulls": result.nulls_created,
        "facts": sorted(str(fact) for fact in result.instance.facts()),
        "trace": trace,
        "counters": {name: counters.get(name, 0) for name in TRACKED_COUNTERS},
        "matches": counters.get("hom.matches", 0),
    }
print(json.dumps(out))
"""


class TestHashSeedIndependence:
    def test_same_results_traces_and_counters(self):
        runs = [
            json.loads(stdout)
            for stdout in run_under_hash_seeds(_SEED_SCRIPT, ("0", "1", "2"))
        ]
        first = runs[0]
        assert first["full"]["stop"] == StopReason.FIXPOINT
        assert first["full"]["trace"]
        assert first["existential"]["nulls"] > 0
        assert first["existential"]["counters"]["hom.backtracks"] > 0
        assert first["egd-failure"]["stop"] == StopReason.EGD_FAILURE
        assert first["projected-full"]["stop"] == StopReason.FIXPOINT
        assert first["projected-full"]["trace"]
        assert first["keys-fan-in"]["stop"] == StopReason.FIXPOINT
        assert first["keys-fan-in"]["nulls"] > 0
        for run in runs[1:]:
            for name, observed in first.items():
                assert run[name] == observed, name
