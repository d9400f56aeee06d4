"""Unit and property tests for :mod:`repro.columnar`.

The differential grid (``tests/test_differential_chase.py``) proves the
columnar backend equivalent to the object reference end to end; this
module pins the pieces that make that equivalence hold:

* the :class:`InternTable` bijection — dense deterministic IDs in
  insertion order, renaming-invariant digests, cheap clones, lean
  pickles;
* the :class:`ColumnarStore` views — ``sorted_tuples`` /
  ``tuples_with`` byte-identical to the object instance's streams, so
  every engine that consumes the canonical order is backend-blind;
* the ID-level executor — identical assignment streams (same dicts,
  same order) on random conjunctions against both backends;
* the memoized plan translation — store-wide stable foreign sentinels,
  and re-translation when a previously-foreign constant gets interned.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import Instance, Schema, chase, parse_tgds
from repro.columnar.intern import InternTable
from repro.columnar.store import ColumnarStore
from repro.homomorphisms import all_extensions_of, all_homomorphisms
from repro.homomorphisms.plans import PLAN_CACHE, conjunction_signature
from repro.lang import Atom, Const, Fact, Null, Var
from repro.telemetry import TELEMETRY
from repro.workloads.random_instances import random_instance
from repro.workloads.random_tgds import random_schema, random_tgd_set

import random


# ----------------------------------------------------------------------
# Element strategies: constants, nulls, and the structured tuples the
# Appendix F reductions intern.

_consts = st.integers(min_value=0, max_value=12).map(
    lambda i: Const(f"c{i}")
)
_nulls = st.integers(min_value=0, max_value=12).map(Null)
_atomic = st.one_of(_consts, _nulls)
_elements = st.one_of(
    _atomic, st.tuples(_atomic, _atomic)
)


class TestInternTable:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(_elements, max_size=30))
    def test_round_trip_identity(self, elements):
        table = InternTable()
        for element in elements:
            vid = table.intern(element)
            assert table.resolve(vid) == element
            assert table.lookup(element) == vid
            assert element in table

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(_elements, max_size=30))
    def test_ids_dense_in_first_occurrence_order(self, elements):
        table = InternTable(elements)
        firsts = list(dict.fromkeys(elements))
        assert len(table) == len(firsts)
        assert list(table) == firsts
        assert [table.lookup(element) for element in firsts] == list(
            range(len(firsts))
        )
        # Determinism: a second table over the same stream allocates
        # the same IDs.
        twin = InternTable(elements)
        assert [twin.lookup(e) for e in firsts] == [
            table.lookup(e) for e in firsts
        ]

    def test_lookup_never_allocates(self):
        table = InternTable()
        assert table.lookup(Const("a")) is None
        assert len(table) == 0

    def test_digest_is_renaming_invariant(self):
        one = InternTable([Const("a"), Const("b"), Null(0)])
        renamed = InternTable([Const("x"), Const("q"), Null(7)])
        assert one.digest() == renamed.digest()

    def test_digest_is_kind_sensitive(self):
        consts = InternTable([Const("a"), Const("b")])
        mixed = InternTable([Const("a"), Null(0)])
        swapped = InternTable([Null(0), Const("a")])
        structured = InternTable([(Const("a"), Const("b"))])
        digests = {
            consts.digest(), mixed.digest(), swapped.digest(),
            structured.digest(),
        }
        assert len(digests) == 4

    def test_digest_updates_as_table_grows(self):
        table = InternTable([Const("a")])
        before = table.digest()
        table.intern(Null(0))
        assert table.digest() != before

    def test_clone_is_independent(self):
        table = InternTable([Const("a")])
        clone = table.clone()
        clone.intern(Const("b"))
        assert len(table) == 1
        assert len(clone) == 2
        assert table.lookup(Const("b")) is None
        assert clone.lookup(Const("b")) == 1
        assert table.digest() != clone.digest()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.lists(_elements, max_size=20))
    def test_pickle_roundtrip(self, elements):
        table = InternTable(elements)
        loaded = pickle.loads(pickle.dumps(table))
        assert list(loaded) == list(table)
        assert all(
            loaded.lookup(e) == table.lookup(e) for e in elements
        )
        assert loaded.digest() == table.digest()
        if elements:
            vid = table.lookup(elements[0])
            assert loaded.sort_key(vid) == table.sort_key(vid)

    def test_intern_hits_counter(self):
        table = InternTable()
        TELEMETRY.reset()
        TELEMETRY.enable(spans=False)
        try:
            table.intern(Const("a"))
            table.intern(Const("a"))
            table.intern(Const("b"))
            table.intern(Const("a"))
            snapshot = TELEMETRY.snapshot()
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert snapshot.get("columnar.intern_hits") == 2


def _random_database(seed: int):
    """A pinned random schema + instance pair."""
    rng = random.Random(seed)
    schema = random_schema(rng, relations=rng.randint(2, 3), max_arity=3)
    instance = random_instance(rng, schema, rng.randint(2, 4), density=0.5)
    return schema, instance


class TestStoreViews:
    """The store's decoded streams are byte-identical to the object
    instance's — same tuples, same canonical order."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_sorted_streams_match_object_instance(self, seed):
        schema, instance = _random_database(seed)
        kernel = instance.with_backend("columnar").columnar_kernel()
        for rel in schema:
            assert kernel.sorted_tuples(rel) == instance.sorted_tuples(rel)
            assert set(kernel.tuples(rel)) == set(instance.tuples(rel))
            assert kernel.row_count(rel) == len(instance.tuples(rel))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_sorted_buckets_match_object_instance(self, seed):
        schema, instance = _random_database(seed)
        kernel = instance.with_backend("columnar").columnar_kernel()
        probes = sorted(instance.active_domain, key=str)[:6] + [
            Const("never-stored")
        ]
        for rel in schema:
            for pos in range(rel.arity):
                for element in probes:
                    assert kernel.sorted_tuples_with(
                        rel, pos, element
                    ) == instance.sorted_tuples_with(rel, pos, element)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_membership_matches_object_instance(self, seed):
        schema, instance = _random_database(seed)
        kernel = instance.with_backend("columnar").columnar_kernel()
        for rel in schema:
            for tup in instance.tuples(rel):
                assert kernel.has(rel, tup)
            absent = tuple(Const("never-stored") for _ in range(rel.arity))
            assert not kernel.has(rel, absent)

    def test_store_pickle_roundtrip(self):
        _, instance = _random_database(7)
        kernel = instance.with_backend("columnar").columnar_kernel()
        loaded = pickle.loads(pickle.dumps(kernel))
        for rel in kernel.relations:
            assert loaded.sorted_tuples(rel) == kernel.sorted_tuples(rel)
            assert loaded.row_count(rel) == kernel.row_count(rel)
            for tup in kernel.tuples(rel):
                assert loaded.has(rel, tup)

    def test_clone_is_independent(self):
        schema, instance = _random_database(11)
        kernel = instance.with_backend("columnar").columnar_kernel()
        rel = next(iter(schema))
        clone = kernel.clone()
        before = kernel.row_count(rel)
        clone.append(rel, tuple(Const("fresh") for _ in range(rel.arity)))
        assert kernel.row_count(rel) == before
        assert clone.row_count(rel) == before + 1
        assert len(clone.table) >= len(kernel.table)

    def test_clone_extends_to_wider_relation_set(self):
        schema, instance = _random_database(11)
        kernel = instance.with_backend("columnar").columnar_kernel()
        from repro.lang import Relation

        extra = Relation("Extra__", 2)
        wide = kernel.clone(tuple(schema) + (extra,))
        assert wide.row_count(extra) == 0
        assert wide.sorted_tuples(extra) == ()
        for rel in schema:
            assert wide.sorted_tuples(rel) == kernel.sorted_tuples(rel)


def _random_conjunctions(seed: int):
    """TGD bodies over a random schema double as join queries."""
    rng = random.Random(seed)
    schema = random_schema(rng, relations=rng.randint(2, 3), max_arity=2)
    try:
        tgds = random_tgd_set(
            rng, schema, rng.randint(1, 3), body_atoms=2, head_atoms=1,
            body_variables=3, existential_variables=0,
        )
    except ValueError:
        return None
    instance = random_instance(rng, schema, rng.randint(2, 4), density=0.5)
    return instance, [tgd.body for tgd in tgds]


class TestExecutorStream:
    """The ID-level executor yields the *same dict stream* as the
    object executor — assignments, key insertion order, everything."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_extension_streams_identical(self, seed):
        scenario = _random_conjunctions(seed)
        if scenario is None:
            return
        instance, bodies = scenario
        columnar = instance.with_backend("columnar")
        for body in bodies:
            obj_stream = list(all_extensions_of(body, instance))
            col_stream = list(all_extensions_of(body, columnar))
            assert obj_stream == col_stream
            assert [list(a) for a in obj_stream] == [
                list(a) for a in col_stream
            ]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        injective=st.booleans(),
    )
    def test_homomorphism_streams_identical(self, seed, injective):
        rng = random.Random(seed)
        schema = random_schema(rng, relations=rng.randint(2, 3), max_arity=2)
        source = random_instance(rng, schema, 2, density=0.5)
        target = random_instance(rng, schema, rng.randint(2, 3), density=0.6)
        obj_stream = list(
            all_homomorphisms(source, target, injective=injective)
        )
        col_stream = list(
            all_homomorphisms(
                source, target.with_backend("columnar"),
                injective=injective,
            )
        )
        assert obj_stream == col_stream

    def test_row_probes_counted_on_columnar_only(self):
        schema = Schema.of(("E", 2),)
        rel = schema.relation("E")
        instance = Instance.from_facts(
            schema,
            [
                Fact(rel, (Const(f"v{i}"), Const(f"v{i + 1}")))
                for i in range(8)
            ],
        )
        query = (
            Atom(rel, (Var("x"), Var("y"))),
            Atom(rel, (Var("y"), Var("z"))),
        )

        def probes(target):
            TELEMETRY.reset()
            TELEMETRY.enable(spans=False)
            try:
                list(all_extensions_of(query, target))
                return TELEMETRY.snapshot().get("columnar.row_probes", 0)
            finally:
                TELEMETRY.disable()
                TELEMETRY.reset()

        assert probes(instance.with_backend("columnar")) > 0
        assert probes(instance) == 0


class TestForeignSentinelsAndPlanMemo:
    SCHEMA = Schema.of(("R", 2),)

    def _store(self) -> ColumnarStore:
        rel = self.SCHEMA.relation("R")
        store = ColumnarStore((rel,))
        store.append(rel, (Const("a"), Const("b")))
        return store

    def test_foreign_sentinels_stable_and_distinct(self):
        store = self._store()
        ghost = store.vid_of(Const("ghost"))
        other = store.vid_of(Const("other"))
        assert ghost < 0 and other < 0
        assert ghost != other
        assert store.vid_of(Const("ghost")) == ghost
        # Interned elements keep their dense non-negative IDs.
        assert store.vid_of(Const("a")) >= 0

    def _plan(self, store):
        rel = self.SCHEMA.relation("R")
        atoms = (Atom(rel, (Var("x"), Const("ghost"))),)
        key, _ = conjunction_signature(
            atoms, (), [store.row_count(rel)]
        )
        return PLAN_CACHE.get(key)

    def test_translation_retranslates_after_interning(self):
        store = self._store()
        rel = self.SCHEMA.relation("R")
        plan = self._plan(store)
        stale = store.translated_plan(plan)
        # Same table population -> memo hit, identical object.
        assert store.translated_plan(plan) is stale
        # "ghost" enters the store: the sentinel translation must be
        # dropped and the constant resolved to its real ID.
        store.append(rel, (Const("b"), Const("ghost")))
        fresh = store.translated_plan(plan)
        assert fresh is not stale
        # Fully resolved now: further growth keeps the memo hit.
        store.append(rel, (Const("ghost"), Const("zz")))
        assert store.translated_plan(plan) is fresh

    def test_sentinel_query_finds_nothing_then_matches(self):
        rel = self.SCHEMA.relation("R")
        base = Instance.from_facts(
            self.SCHEMA, [Fact(rel, (Const("a"), Const("b")))]
        ).with_backend("columnar")
        query = (Atom(rel, (Var("x"), Const("ghost"))),)
        assert list(all_extensions_of(query, base)) == []
        grown = Instance.from_facts(
            self.SCHEMA,
            [
                Fact(rel, (Const("a"), Const("b"))),
                Fact(rel, (Const("b"), Const("ghost"))),
            ],
        ).with_backend("columnar")
        assert list(
            all_extensions_of(query, grown)
        ) == [{Var("x"): Const("b")}]


class TestInstanceBackendApi:
    def test_backend_validation(self):
        schema = Schema.of(("P", 1),)
        instance = Instance.parse("P(a)", schema)
        with pytest.raises(Exception, match="backend"):
            instance.with_backend("vectorized")

    def test_with_backend_is_identity_when_unchanged(self):
        schema = Schema.of(("P", 1),)
        instance = Instance.parse("P(a)", schema)
        assert instance.with_backend("object") is instance

    def test_kernel_only_on_columnar_backend(self):
        schema = Schema.of(("P", 1),)
        instance = Instance.parse("P(a)", schema)
        assert instance.columnar_kernel() is None
        columnar = instance.with_backend("columnar")
        kernel = columnar.columnar_kernel()
        assert kernel is not None
        # Cached for the lifetime of the immutable instance.
        assert columnar.columnar_kernel() is kernel

    def test_columnar_instance_pickle_roundtrip(self):
        _, instance = _random_database(23)
        columnar = instance.with_backend("columnar")
        loaded = pickle.loads(pickle.dumps(columnar))
        assert loaded.backend == "columnar"
        assert loaded == columnar
        for rel in loaded.schema:
            assert loaded.columnar_kernel().sorted_tuples(rel) == (
                columnar.columnar_kernel().sorted_tuples(rel)
            )

    def test_warm_kernel_chase_matches_cold_and_object(self):
        """The chase state bootstraps by cloning a warm kernel; the
        result must be bit-identical to the cold rebuild path and to
        the object reference."""
        schema = Schema.of(("E", 2),)
        rel = schema.relation("E")
        instance = Instance.from_facts(
            schema,
            [
                Fact(rel, (Const(f"v{i}"), Const(f"v{i + 1}")))
                for i in range(6)
            ],
        )
        deps = parse_tgds("E(x, y), E(y, z) -> E(x, z)", schema)
        reference = chase(instance, deps)
        cold = chase(instance, deps, backend="columnar")
        warm_db = instance.with_backend("columnar")
        warm_db.columnar_kernel()  # force the kernel before chasing
        warm = chase(warm_db, deps, backend="columnar")
        assert cold.instance == reference.instance
        assert warm.instance == reference.instance
        assert (
            warm.rounds, warm.fired, warm.nulls_created
        ) == (reference.rounds, reference.fired, reference.nulls_created)
