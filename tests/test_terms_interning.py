"""The hash-consing contract of terms and relation symbols.

``Const``, ``Var``, ``Null`` and ``Relation`` keep one live object per
value, so equality and hashing are identity.  That is sound only if every
route that makes a value returns the tabled object: the constructor, the
parser, the fact-stream reader, the CSV/JSON loaders, ``pickle`` (pool
workers included), ``copy`` and ``deepcopy``.  The Hypothesis property
checks that identity equality and the orderings agree with the value
semantics the classes had as frozen dataclasses.
"""

from __future__ import annotations

import copy
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import Instance, Schema
from repro.instances import (
    FactStream,
    FactStreamWriter,
    load_instance_csv,
    load_instance_json,
    save_instance_csv,
    save_instance_json,
)
from repro.lang import (
    Const,
    Null,
    Relation,
    SchemaError,
    Var,
    parse_facts,
    parse_tgd,
)
from repro.lang.terms import element_sort_key
from repro.memo import clear_memos
from repro.search import PredicateDecider, run_search

VALUES = [Const("a"), Var("x"), Null(7), Relation("R", 2)]


def _rebuilt(value: object) -> object:
    """A fresh construction of ``value`` through its constructor."""
    if isinstance(value, Relation):
        return Relation(value.name, value.arity)
    if isinstance(value, Null):
        return Null(value.index)
    return type(value)(value.name)


def _all_interned(values: tuple) -> bool:
    """Module-level, so pool workers can run it on unpickled values."""
    return all(value is _rebuilt(value) for value in values)


class TestConstruction:
    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_constructor_returns_the_tabled_object(self, value):
        assert _rebuilt(value) is value
        assert hash(_rebuilt(value)) == hash(value)

    def test_parser(self):
        (fact,) = parse_facts("R(a, b)")
        assert fact.relation is Relation("R", 2)
        assert fact.elements[0] is Const("a")
        assert fact.elements[1] is Const("b")
        tgd = parse_tgd("R(x, y) -> exists z . R(y, z)")
        assert tgd.body[0].relation is Relation("R", 2)
        assert tgd.body[0].args == (Var("x"), Var("y"))
        assert tgd.body[0].args[0] is Var("x")
        assert tgd.head[0].args[1] is Var("z")

    def test_fact_stream(self, tmp_path):
        path = tmp_path / "facts.stream"
        relation = Relation("E", 2)
        with FactStreamWriter(path, Schema([relation])) as writer:
            writer.write(relation, (Const("s1"), Const("s2")))
            writer.write(relation, ("s2", "s3"))
        stream = FactStream(path)
        assert stream.schema.relation("E") is relation
        for _ in range(2):  # every pass, not only the first
            rows = list(stream)
            assert rows[0][0] is relation
            assert rows[0][1][1] is Const("s2")
            assert rows[1][1][0] is Const("s2")
            assert rows[1][1][1] is Const("s3")

    def test_csv_and_json(self, tmp_path):
        schema = Schema.of(("E", 2))
        original = Instance.parse("E(a, b)", schema)
        save_instance_csv(original, tmp_path / "csv")
        save_instance_json(original, tmp_path / "instance.json")
        for loaded in (
            load_instance_csv(tmp_path / "csv"),
            load_instance_json(tmp_path / "instance.json"),
        ):
            (fact,) = loaded.facts()
            assert fact.relation is Relation("E", 2)
            assert fact.elements == (Const("a"), Const("b"))
            assert fact.elements[0] is Const("a")
            assert loaded == original

    def test_json_nulls(self, tmp_path):
        schema = Schema.of(("E", 2))
        original = Instance(schema, {Null(3), Const("a")},
                            {Relation("E", 2): {(Const("a"), Null(3))}})
        save_instance_json(original, tmp_path / "instance.json")
        (fact,) = load_instance_json(tmp_path / "instance.json").facts()
        assert fact.elements[1] is Null(3)


class TestCopies:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_pickle_returns_the_tabled_object(self, value, protocol):
        assert pickle.loads(pickle.dumps(value, protocol)) is value

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickled_containers(self, protocol):
        tgd = parse_tgd("R(x, y) -> exists z . R(y, z)")
        again = pickle.loads(pickle.dumps((VALUES, tgd), protocol))
        assert all(a is b for a, b in zip(again[0], VALUES))
        assert again[1] == tgd
        assert again[1].body[0].args[0] is Var("x")

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_copy_and_deepcopy(self, value):
        assert copy.copy(value) is value
        assert copy.deepcopy(value) is value
        assert copy.deepcopy([value, (value,)])[1][0] is value

    def test_pool_workers_see_tabled_objects(self):
        candidates = [(value,) for value in VALUES] + [tuple(VALUES)]
        candidates += [(Const(f"worker-{i}"),) for i in range(40)]
        outcome = run_search(
            candidates, PredicateDecider(_all_interned), jobs=2
        )
        assert list(outcome.accepted) == candidates
        assert outcome.rejected == 0


class TestIdentityContract:
    def test_kinds_never_compare_equal(self):
        assert Const("a") != Var("a")
        assert Const("7") != Null(7)
        assert Relation("R", 1) != Relation("R", 2)
        assert Const("R") != Relation("R", 1)
        assert len({Const("a"), Var("a"), Null(0), Relation("a", 0)}) == 4

    def test_racing_threads_get_one_object(self):
        names = [f"race-{i}" for i in range(5000)]
        results: list[list] = [[] for _ in range(8)]
        start = threading.Barrier(len(results))

        def build(out: list) -> None:
            start.wait(timeout=30)
            for name in names:
                out.append((Const(name), Relation(name, 1)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=build, args=(out,))
                for out in results
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for out in results:
            assert len(out) == len(names)
            assert all(
                a is b and r is s
                for (a, r), (b, s) in zip(out, results[0])
            )

    def test_clear_memos_leaves_identity_intact(self):
        before = list(VALUES)
        clear_memos()
        assert all(_rebuilt(value) is value for value in before)

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_values_are_immutable(self, value):
        field = "index" if isinstance(value, Null) else "name"
        with pytest.raises(AttributeError):
            setattr(value, field, "other")
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1

    @pytest.mark.parametrize("name, arity", [("", 1), ("R", -1)])
    def test_invalid_relation_still_raises(self, name, arity):
        with pytest.raises(SchemaError):
            Relation(name, arity)
        assert (name, arity) not in Relation.table

    def test_display_is_unchanged(self):
        assert repr(Const("a")) == "Const('a')"
        assert repr(Var("x")) == "Var('x')"
        assert repr(Null(7)) == "Null(7)"
        assert repr(Relation("R", 2)) == "Relation(name='R', arity=2)"
        assert [str(v) for v in VALUES] == ["a", "?x", "_N7", "R/2"]


names = st.text(max_size=4)
indexes = st.integers(min_value=0, max_value=50)


class TestValueSemantics:
    """Identity equality and the orderings agree with comparing the
    underlying values, as the frozen dataclasses did."""

    @settings(max_examples=200, deadline=None)
    @given(names, names)
    def test_names(self, a, b):
        for kind in (Const, Var):
            x, y = kind(a), kind(b)
            assert (x == y) is (a == b)
            assert (x != y) is (a != b)
            assert (x < y) is (a < b)
            assert (x <= y) is (a <= b)
            assert (x > y) is (a > b)
            assert (hash(x) == hash(y)) or a != b
        assert element_sort_key(Const(a)) == (0, a)
        assert element_sort_key(Var(a)) == (2, a)
        assert Const(a) != Var(b)

    @settings(max_examples=200, deadline=None)
    @given(indexes, indexes)
    def test_nulls(self, i, j):
        x, y = Null(i), Null(j)
        assert (x == y) is (i == j)
        assert (x < y) is (i < j)
        assert (x >= y) is (i >= j)
        assert element_sort_key(x) == (1, i)
        assert sorted([y, x]) == [Null(k) for k in sorted([j, i])]

    @settings(max_examples=200, deadline=None)
    @given(names.filter(bool), st.integers(0, 3), names.filter(bool),
           st.integers(0, 3))
    def test_relations(self, a, m, b, n):
        x, y = Relation(a, m), Relation(b, n)
        assert (x == y) is ((a, m) == (b, n))
        assert (x < y) is ((a, m) < (b, n))
        assert (x <= y) is ((a, m) <= (b, n))
