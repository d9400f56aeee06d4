"""Static chase-termination analysis: weak acyclicity.

A set of tgds is *weakly acyclic* if its position dependency graph has no
cycle through a "special" edge.  Weak acyclicity guarantees that every
chase sequence terminates in polynomially many steps (Fagin et al., data
exchange); it is the certificate our entailment layer uses to decide when
a chase-based answer is definitive without a budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence, TypeVar

from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..telemetry import TELEMETRY

__all__ = ["Position", "WeakAcyclicityReport", "position_graph", "is_weakly_acyclic", "weak_acyclicity_report"]

Position = tuple[str, int]  # (relation name, argument index)

# {source: {target: special}}; every position of the set is a key.
PositionGraph = dict[Position, dict[Position, bool]]

Node = TypeVar("Node", bound=Hashable)


@dataclass(frozen=True)
class WeakAcyclicityReport:
    """Outcome of the analysis; ``cycle`` witnesses a violation."""

    weakly_acyclic: bool
    cycle: tuple[Position, ...] | None

    def __bool__(self) -> bool:
        return self.weakly_acyclic


def position_graph(tgds: Iterable[TGD]) -> PositionGraph:
    """The position dependency graph, as ``{source: {target: special}}``.

    For every tgd and every body occurrence of a universally quantified
    variable ``x`` at position ``p``:

    * a *regular* edge ``p → q`` for every head position ``q`` of ``x``;
    * a *special* edge ``p → q`` for every head position ``q`` of every
      existentially quantified variable — provided ``x`` occurs in the
      head (i.e. ``x`` is a frontier variable).
    """
    if TELEMETRY.enabled:
        TELEMETRY.count("analysis.position_graph_builds")
    graph: PositionGraph = {}
    for tgd in tgds:
        frontier = set(tgd.frontier)
        existential = set(tgd.existential_variables)
        head_positions: dict[object, list[Position]] = {}
        for atom in tgd.head:
            for i, arg in enumerate(atom.args):
                head_positions.setdefault(arg, []).append(
                    (atom.relation.name, i)
                )
        existential_targets = [
            pos
            for var in existential
            for pos in head_positions.get(var, [])
        ]
        for atom in tgd.body:
            for i, arg in enumerate(atom.args):
                targets = graph.setdefault((atom.relation.name, i), {})
                if arg in frontier:
                    for target in head_positions.get(arg, []):
                        targets.setdefault(target, False)
                    for target in existential_targets:
                        targets[target] = True
        for positions in head_positions.values():
            for pos in positions:
                graph.setdefault(pos, {})
    return graph


def tarjan_sccs(
    nodes: Sequence[Node], edges: Mapping[Node, Sequence[Node]]
) -> tuple[tuple[Node, ...], ...]:
    """Tarjan's SCCs, iteratively, visiting nodes and successors in the
    given deterministic orders; components come out in reverse
    topological order, members in ``nodes`` order."""
    index_of: dict[Node, int] = {}
    lowlink: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    sccs: list[tuple[Node, ...]] = []
    counter = 0
    order = {name: i for i, name in enumerate(nodes)}
    for root in nodes:
        if root in index_of:
            continue
        work: list[tuple[Node, int]] = [(root, 0)]
        while work:
            node, next_index = work[-1]
            if next_index == 0:
                index_of[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            successors = edges.get(node, ())
            for i in range(next_index, len(successors)):
                succ = successors[i]
                if succ not in index_of:
                    work[-1] = (node, i + 1)
                    work.append((succ, 0))
                    recurse = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if recurse:
                continue
            if lowlink[node] == index_of[node]:
                component: list[Node] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                component.sort(key=order.__getitem__)
                sccs.append(tuple(component))
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return tuple(sccs)


def _shortest_path(
    graph: PositionGraph, start: Position, goal: Position
) -> list[Position]:
    """BFS shortest path expanding successors in sorted order, so the
    returned path never depends on hash seeds."""
    if start == goal:
        return [start]
    parents: dict[Position, Position] = {start: start}
    frontier = [start]
    while frontier:
        next_frontier: list[Position] = []
        for node in frontier:
            for succ in sorted(graph[node]):
                if succ in parents:
                    continue
                parents[succ] = node
                if succ == goal:
                    path = [goal]
                    while path[-1] != start:
                        path.append(parents[path[-1]])
                    return path[::-1]
                next_frontier.append(succ)
        frontier = next_frontier
    return [start, goal]  # pragma: no cover - goal is always reachable


def weak_acyclicity_report(
    dependencies: Sequence[TGD | EGD],
) -> WeakAcyclicityReport:
    """Weak acyclicity of the tgds in the set (egds never obstruct it).

    On failure the witness is the canonical special cycle: among the
    special edges ``source → target`` inside one strongly connected
    component, the lexicographically first (by position), closed by the
    BFS-shortest path back from ``target`` to ``source`` with sorted
    expansion.  Same set, same witness — independent of hash
    randomization and dependency iteration internals.
    """
    tgds = [dep for dep in dependencies if isinstance(dep, TGD)]
    graph = position_graph(tgds)
    nodes = sorted(graph)
    successors = {node: sorted(graph[node]) for node in nodes}
    component_of: dict[Position, int] = {}
    for index, component in enumerate(tarjan_sccs(nodes, successors)):
        for node in component:
            component_of[node] = index
    for source in nodes:
        for target in successors[source]:
            if (
                component_of[target] == component_of[source]
                and graph[source][target]
            ):
                path = _shortest_path(graph, target, source)
                return WeakAcyclicityReport(False, tuple([source, *path]))
    return WeakAcyclicityReport(True, None)


def is_weakly_acyclic(dependencies: Sequence[TGD | EGD]) -> bool:
    return weak_acyclicity_report(dependencies).weakly_acyclic
