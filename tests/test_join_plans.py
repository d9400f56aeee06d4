"""Unit and property tests for `repro.homomorphisms.plans`.

The central obligation is the determinism contract: the compiled join
plans must yield *byte-identical* streams to the interpreted reference
matcher (the test oracle in ``tests/oracles/interpreted.py``) — the
same assignments, in the same order, with the same dict key insertion
order — across random conjunctions, instances, partial assignments
and injectivity.  On top of that: plan-cache unit tests
(renaming-invariant sharing, extent-rank invalidation, LRU eviction)
and structural checks that compilation reproduces the interpreter's
greedy most-constrained atom order.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import Instance, Schema
from repro.homomorphisms import (
    all_extensions_of,
    all_homomorphisms,
    find_extension,
    satisfies_atoms,
)
from repro.homomorphisms.plans import (
    PLAN_CACHE,
    compile_plan,
    conjunction_signature,
)
from repro.lang import Atom, Const, Fact, Var, parse_atoms
from repro.memo import Memo
from tests.oracles import interpreted as oracle
from tests.oracles.interpreted import interpreted_search

MATCHERS = (oracle.all_extensions_of, all_extensions_of)

SCHEMA = Schema.of(("E", 2), ("R", 2), ("P", 1), ("T", 3))
RELATIONS = tuple(SCHEMA)
CONSTS = tuple(Const(name) for name in "abcdef")
VARS = tuple(Var(name) for name in ("x", "y", "z", "u", "v"))


def random_conjunction(rng: random.Random, atom_count: int) -> list[Atom]:
    atoms = []
    for __ in range(atom_count):
        rel = rng.choice(RELATIONS)
        args = tuple(
            rng.choice(VARS) if rng.random() < 0.8 else rng.choice(CONSTS)
            for __ in range(rel.arity)
        )
        atoms.append(Atom(rel, args))
    return atoms


def random_target(rng: random.Random, fact_count: int) -> Instance:
    facts = []
    for __ in range(fact_count):
        rel = rng.choice(RELATIONS)
        facts.append(
            Fact(rel, tuple(rng.choice(CONSTS) for __ in range(rel.arity)))
        )
    return Instance.from_facts(SCHEMA, facts)


def random_partial(rng: random.Random, atoms) -> dict[Var, Const]:
    in_play = sorted(
        {arg for atom in atoms for arg in atom.args if isinstance(arg, Var)},
        key=lambda v: v.name,
    )
    return {
        var: rng.choice(CONSTS) for var in in_play if rng.random() < 0.25
    }


def as_pairs(assignments):
    """Assignment streams compared with key *insertion order* intact."""
    return [list(assignment.items()) for assignment in assignments]


class TestByteIdentity:
    """Compiled ≡ interpreted: same assignments, same order, same dict
    key order."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        atom_count=st.integers(min_value=1, max_value=4),
        fact_count=st.integers(min_value=0, max_value=14),
        injective=st.booleans(),
        with_partial=st.booleans(),
    )
    def test_streams_identical(
        self, seed, atom_count, fact_count, injective, with_partial
    ):
        rng = random.Random(seed)
        atoms = random_conjunction(rng, atom_count)
        target = random_target(rng, fact_count)
        partial = random_partial(rng, atoms) if with_partial else None
        interpreted = list(
            oracle.all_extensions_of(
                atoms, target, partial, injective=injective
            )
        )
        compiled = list(
            all_extensions_of(atoms, target, partial, injective=injective)
        )
        assert as_pairs(compiled) == as_pairs(interpreted)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        injective=st.booleans(),
    )
    def test_instance_homomorphism_streams_identical(self, seed, injective):
        rng = random.Random(seed)
        source = random_target(rng, rng.randint(1, 4))
        target = random_target(rng, rng.randint(0, 8))
        with interpreted_search():
            interpreted = list(
                all_homomorphisms(source, target, injective=injective)
            )
        compiled = list(
            all_homomorphisms(source, target, injective=injective)
        )
        assert as_pairs(compiled) == as_pairs(interpreted)

    def test_empty_conjunction_yields_partial_once(self):
        target = Instance.parse("E(a, b)", SCHEMA)
        partial = {Var("x"): Const("c")}
        for matcher in MATCHERS:
            (only,) = matcher((), target, partial)
            assert only == partial

    def test_non_injective_seed_rejected_by_both(self):
        target = Instance.parse("E(a, b). P(a). P(b)", SCHEMA)
        atoms = parse_atoms("P(z)", SCHEMA)
        seed = {Var("x"): Const("a"), Var("y"): Const("a")}
        for matcher in MATCHERS:
            assert list(matcher(atoms, target, seed, injective=True)) == []


class TestPlanStructure:
    def _key(self, text, bound=(), sizes=None):
        atoms = parse_atoms(text, SCHEMA)
        sizes = sizes if sizes is not None else [1] * len(atoms)
        return conjunction_signature(atoms, bound, sizes)

    def test_join_atoms_ordered_before_cartesian(self):
        # After E(x, y) is matched, R(y, z) shares y and must come
        # before the disconnected P(u) despite its textual position.
        key, __ = self._key("E(x, y), P(u), R(y, z)", sizes=[3, 3, 3])
        plan = compile_plan(key)
        assert plan.order == (0, 2, 1)

    def test_smallest_extent_breaks_ties(self):
        key, __ = self._key("E(x, y), R(u, v)", sizes=[9, 2])
        plan = compile_plan(key)
        assert plan.order == (1, 0)

    def test_textual_order_breaks_remaining_ties(self):
        key, __ = self._key("E(x, y), R(u, v)", sizes=[5, 5])
        plan = compile_plan(key)
        assert plan.order == (0, 1)

    def test_bound_variables_drive_the_order(self):
        # With y pre-bound, R(y, z) has a bound position and leads.
        key, __ = self._key(
            "E(x, w), R(y, z)", bound=(Var("y"),), sizes=[2, 9]
        )
        plan = compile_plan(key)
        assert plan.order == (1, 0)

    def test_forward_probes_target_later_atoms(self):
        key, __ = self._key("E(x, y), R(y, z)", sizes=[2, 2])
        plan = compile_plan(key)
        first, second = plan.steps
        # Step 0 binds x and y; y occurs at position 0 of the later R
        # atom, so exactly one forward probe is compiled.
        assert [slot for (__, slot) in first.binds] == [0, 1]
        assert first.forward == ((SCHEMA.relation("R"), 0, 1),)
        assert second.forward == ()

    def test_fully_bound_step_has_no_binds(self):
        key, __ = self._key("E(x, y)", bound=(Var("x"), Var("y")))
        plan = compile_plan(key)
        (step,) = plan.steps
        assert step.fully_bound
        assert len(step.probes) == 2

    def test_prelude_covers_later_atom_constants(self):
        # Both atoms carry one constant (equal boundness); the smaller
        # E extent schedules E first, leaving R's constant to the
        # prelude probe: an empty (R, 1, c) bucket kills the whole
        # conjunction before any search step runs.
        atoms = [
            Atom(SCHEMA.relation("E"), (Const("a"), Var("x"))),
            Atom(SCHEMA.relation("R"), (Var("y"), Const("c"))),
        ]
        key, __ = conjunction_signature(atoms, (), [2, 5])
        plan = compile_plan(key)
        assert plan.order == (0, 1)
        assert plan.prelude == ((SCHEMA.relation("R"), 1, False, Const("c")),)


class TestSignature:
    def test_renaming_invariance(self):
        first, __ = conjunction_signature(
            parse_atoms("E(x, y), R(y, z)", SCHEMA), (), [3, 4]
        )
        second, __ = conjunction_signature(
            parse_atoms("E(u, v), R(v, x)", SCHEMA), (), [3, 4]
        )
        assert first == second

    def test_shape_distinguishes_join_structure(self):
        joined, __ = conjunction_signature(
            parse_atoms("E(x, y), R(y, z)", SCHEMA), (), [3, 4]
        )
        apart, __ = conjunction_signature(
            parse_atoms("E(x, y), R(u, z)", SCHEMA), (), [3, 4]
        )
        assert joined != apart

    def test_dense_ranks_not_raw_sizes(self):
        atoms = parse_atoms("E(x, y), R(y, z)", SCHEMA)
        small, __ = conjunction_signature(atoms, (), [2, 5])
        large, __ = conjunction_signature(atoms, (), [20, 500])
        flipped, __ = conjunction_signature(atoms, (), [5, 2])
        assert small == large  # same relative order → same plan
        assert small != flipped  # order flips → the plan must too

    def test_bound_slots_enter_the_key(self):
        atoms = parse_atoms("E(x, y), R(y, z)", SCHEMA)
        free, __ = conjunction_signature(atoms, (), [3, 3])
        seeded, __ = conjunction_signature(atoms, (Var("y"),), [3, 3])
        assert free != seeded

    def test_bound_vars_outside_conjunction_ignored(self):
        atoms = parse_atoms("E(x, y)", SCHEMA)
        free, __ = conjunction_signature(atoms, (), [3])
        extra, __ = conjunction_signature(atoms, (Var("q"),), [3])
        assert free == extra

    def test_slot_vars_in_first_occurrence_order(self):
        __, slot_vars = conjunction_signature(
            parse_atoms("E(y, x), R(x, z)", SCHEMA), (), [1, 1]
        )
        assert slot_vars == [Var("y"), Var("x"), Var("z")]


def _plan(cache: Memo, key):
    """The search path's lookup: compile and store on a miss."""
    plan = cache.get(key)
    if plan is None:
        plan = compile_plan(key)
        cache.put(key, plan)
    return plan


class TestPlanCache:
    def test_miss_then_hit(self):
        cache = Memo(maxsize=8)
        key, __ = conjunction_signature(
            parse_atoms("E(x, y)", SCHEMA), (), [3]
        )
        first = _plan(cache, key)
        second = _plan(cache, key)
        assert first is second
        assert cache.info() == {
            "hits": 1, "misses": 1, "evictions": 0, "size": 1,
            "maxsize": 8,
        }

    def test_renamed_conjunctions_share_a_plan(self):
        cache = Memo(maxsize=8)
        for text in ("E(x, y), R(y, z)", "E(u, v), R(v, w)"):
            key, __ = conjunction_signature(
                parse_atoms(text, SCHEMA), (), [3, 4]
            )
            _plan(cache, key)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_rank_change_compiles_a_new_plan(self):
        cache = Memo(maxsize=8)
        atoms = parse_atoms("E(x, y), R(y, z)", SCHEMA)
        for sizes in ([2, 5], [5, 2]):
            key, __ = conjunction_signature(atoms, (), sizes)
            _plan(cache, key)
        assert cache.misses == 2

    def test_lru_eviction(self):
        cache = Memo(maxsize=2)
        keys = []
        for text in ("E(x, y)", "R(x, y)", "P(x)"):
            key, __ = conjunction_signature(
                parse_atoms(text, SCHEMA), (), [1]
            )
            keys.append(key)
            _plan(cache, key)
        assert len(cache) == 2
        assert cache.evictions == 1
        _plan(cache, keys[0])  # evicted: recompiles
        assert cache.misses == 4

    def test_clear_resets_everything(self):
        cache = Memo(maxsize=4)
        key, __ = conjunction_signature(
            parse_atoms("P(x)", SCHEMA), (), [1]
        )
        _plan(cache, key)
        cache.clear()
        assert len(cache) == 0
        assert cache.info()["misses"] == 0

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            Memo(maxsize=0)

    def test_scoped_runs_cold_and_restores(self):
        cache = Memo(maxsize=4)
        outer, __ = conjunction_signature(
            parse_atoms("P(x)", SCHEMA), (), [1]
        )
        inner, __ = conjunction_signature(
            parse_atoms("E(x, y)", SCHEMA), (), [1]
        )
        _plan(cache, outer)
        _plan(cache, outer)
        before = cache.info()
        with cache.scoped():
            assert len(cache) == 0
            assert cache.info()["hits"] == cache.info()["misses"] == 0
            _plan(cache, inner)
            _plan(cache, outer)  # the outer table is out of sight: compiles
            assert cache.info()["misses"] == 2
        assert cache.info() == before
        _plan(cache, outer)
        assert cache.info()["hits"] == before["hits"] + 1

    def test_global_cache_reused_by_search(self):
        PLAN_CACHE.clear()
        target = Instance.parse("E(a, b). E(b, c)", SCHEMA)
        atoms = parse_atoms("E(x, y), E(y, z)", SCHEMA)
        for __ in range(5):
            assert find_extension(atoms, target)
        info = PLAN_CACHE.info()
        assert info["misses"] == 1
        assert info["hits"] == 4


class TestPlanSelection:
    def test_unknown_mode_rejected_eagerly(self):
        target = Instance.parse("E(a, b)", SCHEMA)
        atoms = parse_atoms("E(x, y)", SCHEMA)
        with pytest.raises(ValueError, match="unknown order mode"):
            all_extensions_of(atoms, target, order="magic")
        with pytest.raises(ValueError, match="unknown order mode"):
            satisfies_atoms(atoms, target, order="magic")

    def test_empty_extent_pruned_before_compiling(self):
        PLAN_CACHE.clear()
        target = Instance.parse("E(a, b)", SCHEMA)  # R is empty
        atoms = parse_atoms("E(x, y), R(y, z)", SCHEMA)
        assert list(all_extensions_of(atoms, target)) == []
        assert PLAN_CACHE.info()["misses"] == 0
