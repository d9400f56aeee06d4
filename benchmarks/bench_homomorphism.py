"""Engine bench — homomorphism search: query matching, instance-level
homs and isomorphism as instances grow.  The clique
and sparse-path cases scale far enough that the positional index in
``_candidates`` (DESIGN.md §7) is the difference between probing a
handful of bucket entries and scanning the full extent per atom."""

import pytest

from repro import Instance, Schema
from repro.homomorphisms import (
    are_isomorphic,
    find_homomorphism,
    all_extensions_of,
)
from repro.lang import Const, Fact, parse_atoms
from tests.oracles import interpreted as oracle

SCHEMA = Schema.of(("E", 2),)
REL = SCHEMA.relation("E")


def cycle(length: int, prefix: str = "v") -> Instance:
    return Instance.from_facts(
        SCHEMA,
        [
            Fact(REL, (Const(f"{prefix}{i}"), Const(f"{prefix}{(i + 1) % length}")))
            for i in range(length)
        ],
    )


def clique(size: int) -> Instance:
    return Instance.from_facts(
        SCHEMA,
        [
            Fact(REL, (Const(f"k{i}"), Const(f"k{j}")))
            for i in range(size)
            for j in range(size)
            if i != j
        ],
    )


@pytest.mark.parametrize("length", [6, 9, 12])
def test_cycle_to_triangle(benchmark, length):
    # C_{3k} wraps around C_3.
    source = cycle(length)
    target = cycle(3, prefix="t")
    hom = benchmark(find_homomorphism, source, target)
    assert hom is not None


@pytest.mark.parametrize("length", [5, 7])
def test_odd_cycle_to_triangle_fails(benchmark, length):
    source = cycle(length)
    target = cycle(3, prefix="t")
    hom = benchmark(find_homomorphism, source, target)
    assert hom is None  # directed C_m -> C_3 needs 3 | m


@pytest.mark.parametrize("size", [3, 4, 5, 8])
def test_path_query_on_clique(benchmark, size):
    atoms = parse_atoms("E(x, y), E(y, z), E(z, w)", SCHEMA)
    target = clique(size)
    count = benchmark(lambda: sum(1 for __ in all_extensions_of(atoms, target)))
    assert count > 0


@pytest.mark.parametrize("plan", ["compiled", "interpreted"])
@pytest.mark.parametrize("size", [5, 8])
def test_path_query_plan_ablation(benchmark, size, plan):
    # The same query under both matchers (the compiled plan vs the
    # interpreted test oracle): the compiled plan skips the per-node
    # atom re-selection and per-tuple argument interpretation; both
    # count the same matches.
    atoms = parse_atoms("E(x, y), E(y, z), E(z, w)", SCHEMA)
    target = clique(size)
    search = (
        all_extensions_of if plan == "compiled"
        else oracle.all_extensions_of
    )
    count = benchmark(lambda: sum(1 for __ in search(atoms, target)))
    assert count == size * (size - 1) ** 3


@pytest.mark.parametrize("length", [50, 100, 200])
def test_anchored_path_on_long_chain(benchmark, length):
    # One end of the query is pinned by the first atom's bound position;
    # with the index each join step probes a single bucket, so the cost
    # is O(path) rather than O(path × chain length).
    chain = Instance.from_facts(
        SCHEMA,
        [
            Fact(REL, (Const(f"c{i}"), Const(f"c{i + 1}")))
            for i in range(length)
        ],
    )
    atoms = parse_atoms("E(x, y), E(y, z), E(z, w), E(w, u)", SCHEMA)
    count = benchmark(
        lambda: sum(1 for __ in all_extensions_of(atoms, chain))
    )
    assert count == length - 3


@pytest.mark.parametrize("length", [9, 15, 21])
def test_long_cycle_to_triangle_indexed(benchmark, length):
    # The backtracking search repeatedly asks "which edges leave the
    # image of y?" — a one-bucket probe with the index, a full scan
    # without it.
    source = cycle(length)
    target = cycle(3, prefix="t")
    hom = benchmark(find_homomorphism, source, target)
    assert hom is not None


@pytest.mark.parametrize("length", [4, 6, 8])
def test_isomorphism_of_cycles(benchmark, length):
    result = benchmark(
        are_isomorphic, cycle(length), cycle(length, prefix="w")
    )
    assert result
