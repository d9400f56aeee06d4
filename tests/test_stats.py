"""Property and unit tests for the statistics layer (``repro.stats``).

The central contract behind ``order="adaptive"``: the statistics the
backends maintain *incrementally* inside their insert loops must equal
the from-scratch reference computation (:func:`compute_stats`) after
arbitrary insert sequences — on the object chase state (built on the
first read, then upkept by inserts and recounted by egd merges), on the
columnar store (including clone and pickle round trips), and on the
immutable :class:`Instance`'s lazy snapshot.  Interning is a bijection,
so the columnar store's ID-level statistics are compared against the
*element-level* oracle directly.

Also here: unit tests for the pure selectivity cost model
(:mod:`repro.stats.cost`) — determinism, tie-breaking, the guard
bound, and the emblematic skew case where the adaptive order beats the
static one.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import Instance, Schema
from repro.chase.engine import _State
from repro.columnar.store import ColumnarStore
from repro.lang import Const, Relation
from repro.stats import RelationStats, StatsAccumulator, compute_stats
from repro.stats.cost import GUARD_CAP, OrderDecision, choose_order


@st.composite
def insert_sequences(draw):
    """(arity, sequence-of-tuples) with duplicates and skew likely."""
    arity = draw(st.integers(min_value=1, max_value=3))
    pool = [Const(f"c{i}") for i in range(draw(st.integers(1, 6)))]
    element = st.sampled_from(pool)
    seq = draw(
        st.lists(
            st.tuples(*[element] * arity), min_size=0, max_size=40
        )
    )
    return arity, seq


def dedup(seq):
    """First-occurrence dedup, preserving insert order (the backends'
    contract: duplicates are filtered before the index is touched)."""
    seen = set()
    out = []
    for tup in seq:
        if tup not in seen:
            seen.add(tup)
            out.append(tup)
    return out


class TestAccumulator:
    @given(insert_sequences())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_record_matches_oracle(self, case):
        arity, seq = case
        acc = StatsAccumulator(arity)
        counts = [dict() for _ in range(arity)]
        for tup in dedup(seq):
            sizes = []
            for pos, elem in enumerate(tup):
                counts[pos][elem] = counts[pos].get(elem, 0) + 1
                sizes.append(counts[pos][elem])
            acc.record(sizes)
        assert acc.snapshot() == compute_stats(dedup(seq), arity)

    def test_empty_snapshot(self):
        snap = StatsAccumulator(2).snapshot()
        assert snap == RelationStats(0, (0, 0), (0, 0))
        assert snap.expected_bucket(0) == 0.0

    def test_fingerprint_quantizes(self):
        a = RelationStats(9, (5,), (3,))
        b = RelationStats(15, (7,), (2,))  # same bit lengths
        c = RelationStats(16, (7,), (2,))  # rows crossed a power of two
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestStateStats:
    """The object backend: statistics built on the first read, then
    maintained incrementally by ``_State.add`` and recounted by egd
    merges — each path against the oracle, with positions probed (and
    so indexed) before or after the first read."""

    @staticmethod
    def _fresh_state(arity):
        rel = Relation("R", arity)
        schema = Schema([rel])
        return rel, _State(Instance.empty(schema), schema)

    @given(insert_sequences())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_incremental_matches_oracle(self, case):
        arity, seq = case
        rel, state = self._fresh_state(arity)
        for tup in seq:  # duplicates included: add() dedups
            state.add(rel, tup)
        assert state.relation_stats(rel) == compute_stats(
            state.tuples(rel), arity
        )

    @given(insert_sequences())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_constructor_seeding_matches_oracle(self, case):
        arity, seq = case
        rel = Relation("R", arity)
        schema = Schema([rel])
        tuples = set(seq)
        domain = {elem for tup in tuples for elem in tup}
        instance = Instance(schema, domain, {rel: tuples})
        state = _State(instance, schema)
        assert state.relation_stats(rel) == compute_stats(tuples, arity)

    @given(insert_sequences())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_merge_rebuild_matches_oracle(self, case):
        arity, seq = case
        rel, state = self._fresh_state(arity)
        for tup in seq:
            state.add(rel, tup)
        # An egd-style rename collapses buckets and can shrink the
        # relation itself; the merge must leave exact statistics.
        state.merge({Const("c1"): Const("c0")})
        assert state.relation_stats(rel) == compute_stats(
            state.tuples(rel), arity
        )

    @given(insert_sequences())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_read_before_inserts_then_incremental(self, case):
        arity, seq = case
        rel, state = self._fresh_state(arity)
        assert state.relation_stats(rel) == compute_stats((), arity)
        accumulator = state._stats[rel]
        for count, tup in enumerate(seq, 1):
            state.add(rel, tup)
            if count % 7 == 0:
                assert state.relation_stats(rel) == compute_stats(
                    state.tuples(rel), arity
                )
        assert state.relation_stats(rel) == compute_stats(
            state.tuples(rel), arity
        )
        # Upkept in place by ``add``, never rebuilt.
        assert state._stats[rel] is accumulator

    @given(insert_sequences())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_read_before_merge_then_recount(self, case):
        arity, seq = case
        rel, state = self._fresh_state(arity)
        for tup in seq:
            state.add(rel, tup)
        assert state.relation_stats(rel) == compute_stats(
            state.tuples(rel), arity
        )
        state.merge({Const("c1"): Const("c0")})
        assert state.relation_stats(rel) == compute_stats(
            state.tuples(rel), arity
        )
        state.add(rel, (Const("fresh"),) * arity)
        assert state.relation_stats(rel) == compute_stats(
            state.tuples(rel), arity
        )

    @given(insert_sequences(), st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_probes_before_first_read(self, case, data):
        arity, seq = case
        rel, state = self._fresh_state(arity)
        half = len(seq) // 2
        for tup in seq[:half]:
            state.add(rel, tup)
        probed = data.draw(st.sets(st.integers(0, arity - 1)))
        for pos in probed:
            state.tuples_with(rel, pos, Const("c0"))
        for tup in seq[half:]:
            state.add(rel, tup)
        assert state.relation_stats(rel) == compute_stats(
            state.tuples(rel), arity
        )
        for pos in range(arity):
            for elem in {tup[pos] for tup in seq}:
                assert state.tuples_with(rel, pos, elem) == {
                    tup for tup in state.tuples(rel) if tup[pos] == elem
                }


class TestColumnarStats:
    """The columnar backend: ID-level statistics against the
    element-level oracle (interning is a bijection), across append,
    clone, and the pickle rebuild."""

    @staticmethod
    def _filled(case):
        arity, seq = case
        rel = Relation("R", arity)
        store = ColumnarStore((rel,))
        rows = dedup(seq)
        for tup in rows:
            store.append(rel, tup)
        return rel, store, rows

    @given(insert_sequences())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_append_matches_oracle(self, case):
        rel, store, rows = self._filled(case)
        assert store.relation_stats(rel) == compute_stats(rows, rel.arity)

    @given(insert_sequences())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_clone_copies_and_detaches(self, case):
        rel, store, rows = self._filled(case)
        other = ColumnarStore((rel, Relation("S", 1)))
        clone = store.clone((rel, Relation("S", 1)))
        assert clone.relation_stats(rel) == store.relation_stats(rel)
        assert clone.relation_stats(Relation("S", 1)) == other.relation_stats(
            Relation("S", 1)
        )
        # Mutating the clone must not leak back into the original.
        clone.append(rel, tuple(Const("fresh") for _ in range(rel.arity)))
        assert store.relation_stats(rel) == compute_stats(rows, rel.arity)
        assert clone.relation_stats(rel).rows == len(rows) + 1

    @given(insert_sequences())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_pickle_round_trip(self, case):
        rel, store, rows = self._filled(case)
        revived = pickle.loads(pickle.dumps(store))
        assert revived.relation_stats(rel) == compute_stats(rows, rel.arity)

    def test_zero_arity_counts_rows(self):
        rel = Relation("Aux", 0)
        store = ColumnarStore((rel,))
        assert store.relation_stats(rel) == RelationStats(0, (), ())
        store.append(rel, ())
        assert store.relation_stats(rel) == RelationStats(1, (), ())


class TestInstanceStats:
    @given(insert_sequences())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_lazy_snapshot_matches_oracle(self, case):
        arity, seq = case
        rel = Relation("R", arity)
        schema = Schema([rel])
        tuples = set(seq)
        domain = {elem for tup in tuples for elem in tup}
        instance = Instance(schema, domain, {rel: tuples})
        snap = instance.relation_stats(rel)
        assert snap == compute_stats(tuples, arity)
        # Compute-once: repeat calls return the cached snapshot.
        assert instance.relation_stats(rel) is snap

    def test_survives_pickle(self):
        instance = Instance.parse("R(a, b). R(a, c)")
        rel = instance.schema.relation("R")
        assert instance.relation_stats(rel).rows == 2
        revived = pickle.loads(pickle.dumps(instance))
        assert revived.relation_stats(rel) == instance.relation_stats(rel)


def stats(rows, distinct, max_bucket):
    return RelationStats(rows, tuple(distinct), tuple(max_bucket))


class TestCostModel:
    def test_selective_atom_goes_first(self):
        # The emblematic skew case (mirrors the chase-skewed bench
        # family): with slot 0 bound, B's bucket holds ~100 rows while
        # C's holds ~1 — probing C first shrinks the B step to a
        # near-membership check.
        skewed = stats(1000, (10, 1000), (100, 1))
        selective = stats(1000, (1000, 1000), (1, 1))
        decision = choose_order(
            [(skewed, (0, 1)), (selective, (0, 2))], frozenset({0})
        )
        assert decision.order == (1, 0)
        assert not decision.guarded

    def test_deterministic_and_lexicographic_ties(self):
        uniform = stats(100, (10, 10), (10, 10))
        atoms = [(uniform, (0, 1)), (uniform, (0, 2))]
        first = choose_order(atoms, frozenset({0}))
        second = choose_order(atoms, frozenset({0}))
        assert first == second
        assert first.order == (0, 1)  # identical costs: textual order

    def test_fully_bound_atom_is_one_probe(self):
        decision = choose_order(
            [(stats(10 ** 6, (1,), (10 ** 6,)), (Const("a"),))], frozenset()
        )
        assert decision.estimates == (1,)
        assert decision.cost == 1.0

    def test_unbound_atom_scans_extent(self):
        decision = choose_order(
            [(stats(42, (7,), (12,)), (0,))], frozenset()
        )
        assert decision.estimates == (42,)

    def test_guard_trips_on_worst_case_blowup(self):
        big = stats(1000, (1000,), (1000,))
        decision = choose_order([(big, (0,)), (big, (1,))], frozenset())
        assert decision.worst > GUARD_CAP
        assert decision.guarded

    def test_estimates_align_with_order_and_floor_at_one(self):
        tiny = stats(3, (3, 3), (1, 1))
        huge = stats(500, (5, 5), (250, 250))
        decision = choose_order(
            [(huge, (0, 1)), (tiny, (0, 2))], frozenset({0})
        )
        assert len(decision.estimates) == len(decision.order) == 2
        assert all(est >= 1 for est in decision.estimates)
        assert decision.order[0] == 1  # tiny expected bucket first

    def test_greedy_path_is_a_permutation(self):
        uniform = stats(50, (10, 10), (5, 5))
        atoms = [(uniform, (i, i + 1)) for i in range(7)]  # > exhaustive
        decision = choose_order(atoms, frozenset({0}))
        assert sorted(decision.order) == list(range(7))
        assert decision == choose_order(atoms, frozenset({0}))

    def test_decision_is_frozen(self):
        decision = choose_order(
            [(stats(5, (5,), (1,)), (0,))], frozenset({0})
        )
        assert isinstance(decision, OrderDecision)
        with pytest.raises(AttributeError):
            decision.cost = 0.0
