"""A sweep keeps one trigger per frontier binding, and an egd runs no
repair pass without a new body fact.

A restricted sweep of a tgd hands its firing loop, of the body matches
with one binding of the frontier, only the first in the canonical
firing order: the head reads nothing else, so the later ones are not
active (an existential head has an extension once the first fired or
found one; a full head's image is the same).  An egd's pass is skipped
while no fact of its body relations has been logged since its last
one.  These tests hold both shortcuts to what they replace:

* ``TestAgainstTheReference`` — on random existential and full sets
  whose heads drop body variables, with a key egd and budgets that stop
  mid-sweep, ``chase()`` gives the facts, rounds, stop reason, ``fired``,
  ``nulls_created`` and ordered ``on_fire`` trace of the
  probe-every-trigger, repair-every-round loop of
  ``tests/oracles/restricted.py``;
* ``TestOneTriggerPerBinding`` — a first and a semi-naive sweep return
  exactly the first match per distinct binding, in canonical order,
  whatever the batch size;
* ``TestEgdPasses`` — an egd whose body relations got no new fact,
  including from its own merges, is not repaired again.
"""

from __future__ import annotations

from contextlib import contextmanager

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro import Instance, Schema, chase, parse_dependency, parse_tgds
from repro.chase import StopReason, engine
from repro.dependencies.tgd import TGD
from repro.lang import Atom, Var
from repro.lang.atoms import atoms_variables
from repro.lang.terms import element_sort_key
from tests.oracles.interpreted import all_extensions_of
from tests.oracles.restricted import activity_checked_chase
from tests.test_datalog_path import facts_by_name, recorded_chase

SCHEMA = Schema.of(("E", 2), ("F", 2), ("M", 2), ("A", 1))
KEY = parse_dependency("M(x, y), M(x, z) -> y = z", SCHEMA)
VARIABLES = tuple(Var(name) for name in ("x", "y", "w", "v"))
WITNESS = Var("z")
CONSTANTS = ("c0", "c1", "c2", "c3")

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def atoms(pool, relations):
    return st.sampled_from(relations).flatmap(
        lambda name: st.tuples(
            *[st.sampled_from(pool)] * SCHEMA.relation(name).arity
        ).map(lambda args: Atom(SCHEMA.relation(name), args))
    )


@st.composite
def tgds(draw):
    """A tgd whose head keeps, where it can, fewer variables than its
    body binds: existential or full, and now and then an empty
    frontier."""
    pool = VARIABLES[:draw(st.integers(2, 4))]
    body = draw(st.lists(atoms(pool, ("E", "F", "M", "A")), min_size=1,
                         max_size=3))
    body_vars = atoms_variables(body)
    kept = draw(st.lists(
        st.sampled_from(body_vars), unique=True,
        min_size=0, max_size=max(1, len(body_vars) - 1),
    ))
    head_pool = kept + [WITNESS] if draw(st.booleans()) or not kept else kept
    head = draw(st.lists(atoms(head_pool, ("F", "M", "A")), min_size=1,
                         max_size=2))
    return TGD(body, head)


def instances(min_size=1, binary=("E", "F", "M")):
    facts = st.one_of(
        st.tuples(st.sampled_from(binary),
                  st.sampled_from(CONSTANTS), st.sampled_from(CONSTANTS)),
        st.tuples(st.just("A"), st.sampled_from(CONSTANTS)),
    )
    return st.sets(facts, min_size=min_size, max_size=10).map(
        lambda rows: Instance.parse(
            ". ".join(f"{row[0]}({', '.join(row[1:])})" for row in sorted(rows)),
            SCHEMA,
        )
    )


@st.composite
def keyed(draw):
    """Two tgds inventing M-successors of one body variable, the second
    also marking its witness, so the key egd has nulls to merge."""
    pool = VARIABLES[:draw(st.integers(2, 3))]
    m, a = SCHEMA.relation("M"), SCHEMA.relation("A")
    made = []
    body = None
    for marked in (False, True):
        if body is None or draw(st.booleans()):
            body = draw(st.lists(
                atoms(pool, ("E", "F")), min_size=1, max_size=2
            ))
        key = draw(st.sampled_from(atoms_variables(body)))
        head = [Atom(m, (key, WITNESS))]
        if marked:
            head.append(Atom(a, (WITNESS,)))
        made.append(TGD(body, head))
    return made


@st.composite
def cases(draw):
    deps = draw(st.lists(tgds(), min_size=1, max_size=3))
    if draw(st.booleans()):
        # No M facts to start with: two constants under one key fail
        # the first repair pass.
        deps += [*draw(keyed()), KEY]
        instance = draw(instances(min_size=3, binary=("E", "F")))
    else:
        instance = draw(instances(min_size=3))
    options = {"max_rounds": draw(st.sampled_from((1, 2, 4)))}
    if draw(st.booleans()):
        options["max_facts"] = instance.fact_count() + draw(st.integers(0, 6))
    return instance, deps, options


class TestAgainstTheReference:
    @SETTINGS
    @given(cases())
    def test_the_chase_is_the_reference_loop(self, case):
        instance, deps, options = case
        reference = activity_checked_chase(instance, deps, **options)
        result, calls = recorded_chase(instance, deps, **options)
        assert result.stop_reason == reference.stop_reason
        assert result.rounds == reference.rounds
        assert result.fired == reference.fired
        assert calls == reference.firings
        assert result.nulls_created == sum(
            len(tgd.existential_variables) for tgd, _, _ in calls
        )
        if result.stop_reason != StopReason.EGD_FAILURE:
            # (A failed run's state is the one its last repair pass
            # started from, the reference's where it met the clash.)
            assert facts_by_name(result.instance) == reference.facts

    def test_a_budget_stops_mid_sweep(self):
        """A full rule with three matches per binding and a fact budget
        that stops the first sweep after two of its four firings."""
        instance = Instance.parse(
            ". ".join(f"E(c{i}, c{j})" for i in range(4) for j in range(3)),
            SCHEMA,
        )
        deps = parse_tgds("E(x, y) -> A(x)", SCHEMA)
        options = {"max_rounds": 4, "max_facts": instance.fact_count() + 1}
        reference = activity_checked_chase(instance, deps, **options)
        result, calls = recorded_chase(instance, deps, **options)
        assert result.stop_reason == StopReason.FACT_BUDGET
        assert result.fired == 2 and calls == reference.firings


def first_per_binding(matches, tgd, per):
    """The first match per binding of ``per`` in canonical order."""
    univ = tgd.universal_variables
    ordered = sorted(
        matches, key=lambda m: tuple(element_sort_key(m[v]) for v in univ)
    )
    seen, kept = set(), []
    for match in ordered:
        binding = tuple(match[v] for v in per)
        if binding not in seen:
            seen.add(binding)
            kept.append(match)
    return kept


@contextmanager
def batches_of(size):
    """Sweep in batches of ``size`` matches (``None``: the engine's
    own), so bindings meet again across batches and inside one."""
    default = engine._SWEEP_BATCH
    engine._SWEEP_BATCH = size or default
    try:
        yield
    finally:
        engine._SWEEP_BATCH = default


BATCHES = pytest.mark.parametrize("batch", [1, 2, None])


class TestOneTriggerPerBinding:
    @BATCHES
    @SETTINGS
    @given(tgd=tgds(), instance=instances(), extra=instances(min_size=0))
    def test_first_and_delta_sweeps(self, batch, tgd, instance, extra):
        with batches_of(batch):
            self.check_sweeps(tgd, instance, extra)

    @staticmethod
    def check_sweeps(tgd, instance, extra):
        state = engine._State(instance, SCHEMA)
        for per in (tgd.frontier, tgd.universal_variables):
            found = engine._sweep_triggers(state, tgd, None, 0, per)
            matches = list(all_extensions_of(tgd.body, instance))
            assert found == first_per_binding(matches, tgd, per)
            assert len(found) == len(
                {tuple(m[v] for v in per) for m in matches}
            )
        start = len(state.log)
        for fact in extra.facts():
            state.add(fact.relation, fact.elements)
        new = set(state.log[start:])
        grown = state.snapshot()
        touching = [
            match
            for match in all_extensions_of(tgd.body, grown)
            if any(
                (atom.relation, tuple(match[arg] for arg in atom.args)) in new
                for atom in tgd.body
            )
        ]
        found = engine._sweep_triggers(
            state, tgd, start, len(state.log), tgd.frontier
        )
        assert found == first_per_binding(touching, tgd, tgd.frontier)

    @BATCHES
    def test_fan_in_keeps_the_smallest_match(self, batch):
        tgd = parse_tgds("E(x, y) -> exists z . M(y, z)", SCHEMA)[0]
        instance = Instance.parse("E(c3, c0). E(c1, c0). E(c2, c0)", SCHEMA)
        state = engine._State(instance, SCHEMA)
        with batches_of(batch):
            found = engine._sweep_triggers(state, tgd, None, 0, tgd.frontier)
        assert [
            {v.name: e.name for v, e in t.items()} for t in found
        ] == [{"x": "c1", "y": "c0"}]


def counted_egd_passes(monkeypatch):
    calls = []
    repair = engine._chase_egd

    def counting(state, egd):
        calls.append(len(state.log))
        return repair(state, egd)

    monkeypatch.setattr(engine, "_chase_egd", counting)
    return calls


# Round 1 gives each E source two M-successors, and the key merges the
# later one into the earlier: its own M-successor is renamed into a new
# M fact, logged by the merge.  The path's F closure then runs on for
# rounds with no new M fact.
PATH = ". ".join(f"E(c{i}, c{i + 1})" for i in range(6))
RULES = (
    "E(x, y) -> exists z . M(x, z), A(z)",
    "E(x, y) -> exists z . M(x, z), M(z, y)",
    "E(x, y) -> F(x, y)",
    "F(x, y), F(y, w) -> F(x, w)",
)


class TestEgdPasses:
    def test_no_pass_without_a_new_body_fact(self, monkeypatch):
        calls = counted_egd_passes(monkeypatch)
        deps = [*parse_tgds("\n".join(RULES), SCHEMA), KEY]
        result = chase(Instance.parse(PATH, SCHEMA), deps)
        assert result.stop_reason == StopReason.FIXPOINT
        assert result.rounds >= 4
        assert len(result.instance.tuples("M")) == 12
        assert result.nulls_created == 12
        # Its own merge logged the renamed M facts; they are not new.
        assert len(calls) == 1

    def test_a_new_body_fact_brings_a_pass(self, monkeypatch):
        calls = counted_egd_passes(monkeypatch)
        # Sorted after the key, this rule gives c6 its M fact in round
        # 1 after the key's pass, so round 2 repairs again.
        rules = (*RULES, "M(x, z), F(x, y) -> exists w . M(y, w)")
        deps = [*parse_tgds("\n".join(rules), SCHEMA), KEY]
        result = chase(Instance.parse(PATH, SCHEMA), deps)
        assert result.stop_reason == StopReason.FIXPOINT
        assert result.rounds >= 4
        assert len(result.instance.tuples("M")) == 13
        assert len(calls) == 2
