"""The shared rule dependency graph (`repro.analysis.depgraph`).

The graph replaced the private per-pass rebuilds in hygiene and
stratification, so these tests pin both its own structure (first-seen
order, AND-closure, SCCs, existential edges) and the parity contracts
the refactored passes rely on.
"""

from __future__ import annotations

from repro.analysis import (
    DepGraph,
    depgraph_for,
)
from repro.lang import parse_dependency, parse_tgds
from repro.lang.schema import Schema
from repro.memo import clear_memos
from repro.telemetry import TELEMETRY, MemorySink

SCHEMA = Schema.of(("A", 1), ("R", 2), ("S", 2), ("T", 2), ("B", 1))

LINEAR_CHAIN = parse_tgds(
    "A(x) -> exists y . R(x, y)\nR(x, y) -> B(y)", SCHEMA
)

RECURSIVE = parse_tgds(
    "A(x) -> exists y . R(x, y)\n"
    "R(x, y) -> S(y, x)\n"
    "S(x, y) -> R(y, x)\n"
    "S(x, y) -> B(x)",
    SCHEMA,
)


class TestStructure:
    def test_predicates_in_first_seen_order(self):
        graph = depgraph_for(RECURSIVE)
        assert graph.predicates == ("A", "R", "S", "B")

    def test_extensional_and_derived_partition(self):
        graph = depgraph_for(RECURSIVE)
        assert graph.extensional == {"A"}
        assert graph.derived == {"R", "S", "B"}

    def test_derived_by_names_the_first_deriving_rule(self):
        graph = depgraph_for(RECURSIVE)
        assert graph.derived_by == {"R": 0, "S": 1, "B": 3}

    def test_edges_and_existential_annotation(self):
        graph = depgraph_for(RECURSIVE)
        assert graph.edges["A"] == ("R",)
        assert graph.edges["R"] == ("S",)
        assert set(graph.edges["S"]) == {"R", "B"}
        # Only the null-inventing rule contributes an existential edge.
        assert graph.existential_edges == {("A", "R")}

    def test_reachability_is_an_and_closure(self):
        schema = Schema.of(
            ("A", 1), ("P", 1), ("Ghost", 1), ("Phantom", 1), ("J", 1)
        )
        # Ghost and Phantom only derive each other, so neither is
        # reachable — and J, which needs the reachable P *and* Ghost,
        # stays unreachable too (OR-closure would admit it).
        sigma = parse_tgds(
            "A(x) -> P(x)\n"
            "Ghost(x) -> Phantom(x)\n"
            "Phantom(x) -> Ghost(x)\n"
            "P(x), Ghost(x) -> J(x)",
            schema,
        )
        graph = depgraph_for(sigma)
        assert "P" in graph.reachable
        assert "Ghost" not in graph.reachable
        assert "J" not in graph.reachable

    def test_sccs_in_reverse_topological_order(self):
        graph = depgraph_for(RECURSIVE)
        assert ("R", "S") in graph.sccs
        # Sinks come out before their feeders (reverse topological).
        assert graph.sccs.index(("B",)) < graph.sccs.index(("R", "S"))
        assert graph.sccs[-1] == ("A",)

    def test_recursion_detection(self):
        assert depgraph_for(LINEAR_CHAIN).is_nonrecursive
        graph = depgraph_for(RECURSIVE)
        assert not graph.is_nonrecursive
        assert graph.recursive_predicates == {"R", "S"}

    def test_self_loop_counts_as_recursion(self):
        sigma = parse_tgds("R(x, y) -> R(y, x)", Schema.of(("R", 2)))
        graph = depgraph_for(sigma)
        assert graph.recursive_predicates == {"R"}

    def test_non_tgds_contribute_predicates_but_no_edges(self):
        egd = parse_dependency("R(x, y), R(x, z) -> y = z")
        graph = depgraph_for([*LINEAR_CHAIN, egd])
        assert graph.predicates == ("A", "R", "B")
        assert "R" not in graph.edges or graph.edges["R"] == ("B",)
        # derived_by only reports tgd-derived predicates.
        assert set(graph.derived_by) == {"R", "B"}

    def test_repr_is_informative(self):
        graph = depgraph_for(RECURSIVE)
        assert "4 predicates" in repr(graph)
        assert isinstance(graph, DepGraph)


class TestMemoization:
    def setup_method(self):
        TELEMETRY.disable()
        TELEMETRY.reset()
        clear_memos()

    def teardown_method(self):
        TELEMETRY.disable()
        TELEMETRY.reset()
        clear_memos()

    def test_same_set_returns_the_cached_graph(self):
        sink = MemorySink()
        TELEMETRY.enable(sink)
        first = depgraph_for(RECURSIVE)
        second = depgraph_for(RECURSIVE)
        TELEMETRY.disable()
        assert second is first
        assert sink.counters.get("analysis.depgraphs_computed") == 1
        assert sink.counters.get("analysis.depgraph_cache_hits") == 1

    def test_rule_order_is_part_of_the_key(self):
        # derived_by speaks about rule indices, so a reordered set must
        # not share a memo entry.
        reordered = tuple(reversed(RECURSIVE))
        first = depgraph_for(RECURSIVE)
        second = depgraph_for(reordered)
        assert second is not first
        assert first.derived_by != second.derived_by

    def test_clear_depgraph_cache_forces_rebuild(self):
        first = depgraph_for(RECURSIVE)
        clear_memos()
        second = depgraph_for(RECURSIVE)
        assert second is not first
        assert second.predicates == first.predicates
