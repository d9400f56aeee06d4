"""Unit tests for weak acyclicity."""

from repro import Schema, chase, parse_tgds
from repro.chase import is_weakly_acyclic, position_graph, weak_acyclicity_report
from repro import Instance

SCHEMA = Schema.of(("E", 2), ("P", 1))


def rules(text: str):
    return parse_tgds(text, SCHEMA)


class TestWeakAcyclicity:
    def test_full_tgds_always_weakly_acyclic(self):
        assert is_weakly_acyclic(rules("E(x, y), E(y, z) -> E(x, z)"))

    def test_simple_invention_acyclic(self):
        assert is_weakly_acyclic(rules("P(x) -> exists z . E(x, z)"))

    def test_classic_cycle_detected(self):
        report = weak_acyclicity_report(
            rules("P(x) -> exists z . E(x, z)\nE(x, z) -> P(z)")
        )
        assert not report.weakly_acyclic
        assert report.cycle is not None

    def test_self_feeding_invention(self):
        assert not is_weakly_acyclic(
            rules("E(x, y) -> exists z . E(y, z)")
        )

    def test_regular_cycle_is_fine(self):
        # symmetric closure cycles through regular edges only.
        assert is_weakly_acyclic(rules("E(x, y) -> E(y, x)"))

    def test_empty_set(self):
        assert is_weakly_acyclic(())

    def test_egds_ignored(self):
        from repro.lang import parse_egd

        deps = [parse_egd("E(x, y), E(x, z) -> y = z", SCHEMA)]
        assert is_weakly_acyclic(deps)

    def test_position_graph_shape(self):
        graph = position_graph(rules("P(x) -> exists z . E(x, z)"))
        assert ("P", 0) in graph
        assert ("E", 0) in graph[("P", 0)]
        assert graph[("P", 0)][("E", 1)]

    def test_non_frontier_variables_produce_no_special_edges(self):
        # x does not occur in the head, so no special edge from P's position.
        graph = position_graph(rules("P(x) -> exists z . P(z)"))
        assert sum(len(targets) for targets in graph.values()) == 0

    def test_weakly_acyclic_sets_terminate(self):
        deps = rules(
            "P(x) -> exists z . E(x, z)\nE(x, y) -> E(y, x)"
        )
        assert is_weakly_acyclic(deps)
        result = chase(Instance.parse("P(a)", SCHEMA), deps)
        assert result.terminated


class TestDeterministicWitness:
    """`weak_acyclicity_report` pins one canonical cycle witness: the
    first special in-component edge in sorted node/successor order,
    closed by a BFS shortest path back to its source."""

    def test_self_loop_witness_is_pinned(self):
        report = weak_acyclicity_report(
            rules("E(x, y) -> exists z . E(y, z)")
        )
        assert not report.weakly_acyclic
        assert report.cycle == (("E", 1), ("E", 1))

    def test_two_rule_cycle_witness_is_pinned(self):
        report = weak_acyclicity_report(
            rules("P(x) -> exists z . E(x, z)\nE(x, z) -> P(z)")
        )
        assert not report.weakly_acyclic
        assert report.cycle == (("P", 0), ("E", 1), ("P", 0))

    def test_witness_is_stable_across_runs(self):
        text = "P(x) -> exists z . E(x, z)\nE(x, z) -> P(z)"
        witnesses = {
            weak_acyclicity_report(rules(text)).cycle for __ in range(5)
        }
        assert len(witnesses) == 1

    def test_witness_edges_exist_in_the_position_graph(self):
        report = weak_acyclicity_report(
            rules("P(x) -> exists z . E(x, z)\nE(x, z) -> P(z)")
        )
        graph = position_graph(
            rules("P(x) -> exists z . E(x, z)\nE(x, z) -> P(z)")
        )
        cycle = report.cycle
        edges = list(zip(cycle, cycle[1:]))
        assert all(v in graph[u] for u, v in edges)
        assert any(graph[u][v] for u, v in edges)
