"""Termination analyses beyond weak acyclicity: joint and super-weak
acyclicity.

Weak acyclicity (:mod:`repro.chase.termination`) works at the
granularity of *positions*: every existential variable landing in a
position contaminates it for all of them.  The two refinements here
track flows more precisely and certify strictly more sets — the
certificate lattice (as classes of tgd sets) is

    weakly acyclic  ⊊  jointly acyclic  ⊊  super-weakly acyclic

and all three guarantee that every chase sequence terminates.

**Joint acyclicity** (Krötzsch & Rudolph, IJCAI 2011) computes, per
existential variable ``y``, the set ``Mov(y)`` of positions its nulls
can reach: head positions of ``y``, closed under frontier variables all
of whose body positions are already reachable.  The *existential
dependency graph* has an edge ``y → y'`` when the rule inventing ``y'``
has a *frontier* variable whose (non-empty) body positions all lie in
``Mov(y)`` — a ``y``-null can then parameterize a fresh ``y'``.  Only
frontier variables matter: in the Skolem chase a null for ``y'`` is the
term ``f_{y'}(frontier values)``, so a null matched by a non-frontier
variable enables a trigger but never mints a *new* term (this is also
what makes weak acyclicity imply joint acyclicity — a variable absent
from the head induces no position-graph edges either).  Joint
acyclicity is acyclicity of that graph.

**Super-weak acyclicity** (Marnette, PODS 2009) refines positions to
*places* — (rule, atom occurrence, argument index) — and only lets a
null move from a head place into a body place when the two atoms
actually unify once existential variables are read as Skolem terms:
with constant-free rules, unification fails exactly when a repeated
body variable would equate two distinct Skolem terms.  The trigger
relation ``r ≺ r'`` (a null of ``r`` can reach every body place of some
frontier variable of ``r'``, parameterizing fresh Skolem terms) is
required to be acyclic; as in the joint case, frontier variables are
the ones that matter.

Both reports return a concrete cycle witness when the condition fails,
rendered over existential variables (joint) or rule indices
(super-weak).  Every walk iterates rules, variables, and edges in a
fixed order, so the witness is deterministic — same input, same
witness, independent of hash seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..dependencies.advanced_classes import Position, _closure, _positions_of
from ..dependencies.tgd import TGD
from ..lang.atoms import Atom
from ..lang.terms import Var

__all__ = [
    "AcyclicityReport",
    "joint_acyclicity_report",
    "is_jointly_acyclic",
    "super_weak_acyclicity_report",
    "is_super_weakly_acyclic",
]

# An existential variable, identified by (rule index, variable name).
ExVar = tuple[int, str]
# A place: (rule index, part, atom index, argument index) with part 0
# for the body and 1 for the head.
Place = tuple[int, int, int, int]


@dataclass(frozen=True)
class AcyclicityReport:
    """Outcome of an acyclicity analysis; ``cycle`` witnesses a
    violation as a tuple of rendered node labels."""

    acyclic: bool
    cycle: tuple[str, ...] | None

    def __bool__(self) -> bool:
        return self.acyclic


def _find_cycle(
    nodes: Sequence[str], edges: Mapping[str, Sequence[str]]
) -> tuple[str, ...] | None:
    """The first cycle of a digraph under DFS in the given node and
    successor order, as ``(v0, ..., vk, v0)``; ``None`` when acyclic."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in nodes}
    for root in nodes:
        if color[root] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(root, 0)]
        path: list[str] = []
        color[root] = GREY
        path.append(root)
        while stack:
            node, next_index = stack[-1]
            successors = edges.get(node, ())
            if next_index < len(successors):
                stack[-1] = (node, next_index + 1)
                succ = successors[next_index]
                if color.get(succ, BLACK) == GREY:
                    start = path.index(succ)
                    return tuple(path[start:] + [succ])
                if color.get(succ, BLACK) == WHITE:
                    color[succ] = GREY
                    path.append(succ)
                    stack.append((succ, 0))
            else:
                stack.pop()
                path.pop()
                color[node] = BLACK
    return None


# ----------------------------------------------------------------------
# Joint acyclicity
# ----------------------------------------------------------------------


def _joint_movement(
    tgds: Sequence[TGD],
) -> dict[ExVar, frozenset[Position]]:
    """``Mov(y)`` per existential variable: positions its nulls reach."""
    return {
        (i, var.name): _closure(tgds, _positions_of(tgd.head, var))
        for i, tgd in enumerate(tgds)
        for var in tgd.existential_variables
    }


def _exvar_label(exvar: ExVar) -> str:
    return f"{exvar[1]}@rule{exvar[0]}"


def joint_acyclicity_report(tgds: Sequence[TGD]) -> AcyclicityReport:
    """Joint acyclicity of a tgd set, with an existential-dependency
    cycle as the witness on failure."""
    tgds = list(tgds)
    movement = _joint_movement(tgds)
    exvars = sorted(movement)
    labels = [_exvar_label(v) for v in exvars]
    edges: dict[str, list[str]] = {}
    for source in exvars:
        mov = movement[source]
        targets: list[str] = []
        for target in exvars:
            rule = tgds[target[0]]
            for var in dict.fromkeys(rule.frontier):
                body_positions = _positions_of(rule.body, var)
                if body_positions and all(
                    pos in mov for pos in body_positions
                ):
                    targets.append(_exvar_label(target))
                    break
        edges[_exvar_label(source)] = targets
    cycle = _find_cycle(labels, edges)
    return AcyclicityReport(cycle is None, cycle)


def is_jointly_acyclic(tgds: Sequence[TGD]) -> bool:
    return joint_acyclicity_report(tgds).acyclic


# ----------------------------------------------------------------------
# Super-weak acyclicity
# ----------------------------------------------------------------------


def _head_places(tgd: TGD, rule: int, var: Var) -> tuple[Place, ...]:
    return tuple(
        (rule, 1, atom_index, arg_index)
        for atom_index, atom in enumerate(tgd.head)
        for arg_index, arg in enumerate(atom.args)
        if arg == var
    )


def _body_places(tgd: TGD, rule: int, var: Var) -> tuple[Place, ...]:
    return tuple(
        (rule, 0, atom_index, arg_index)
        for atom_index, atom in enumerate(tgd.body)
        for arg_index, arg in enumerate(atom.args)
        if arg == var
    )


def _skolem_unifiable(
    head_atom: Atom, head_existentials: frozenset[Var], body_atom: Atom
) -> bool:
    """Can the head atom (existentials read as Skolem terms) match the
    body atom?  With constant-free rules, the only obstruction is a
    repeated body variable forcing two *distinct* Skolem terms equal."""
    for i in range(len(body_atom.args)):
        for j in range(i + 1, len(body_atom.args)):
            if body_atom.args[i] != body_atom.args[j]:
                continue
            left, right = head_atom.args[i], head_atom.args[j]
            if (
                left != right
                and left in head_existentials
                and right in head_existentials
            ):
                return False
    return True


def _covered(
    body_place: Place,
    move: set[Place],
    tgds: Sequence[TGD],
) -> bool:
    """Is the body place reachable from some head place in ``move``
    (same relation, same argument index, Skolem-unifiable atoms)?"""
    rule, __, atom_index, arg_index = body_place
    body_atom = tgds[rule].body[atom_index]
    for head_place in move:
        head_rule, __, head_atom_index, head_arg_index = head_place
        if head_arg_index != arg_index:
            continue
        head_tgd = tgds[head_rule]
        head_atom = head_tgd.head[head_atom_index]
        if head_atom.relation != body_atom.relation:
            continue
        if _skolem_unifiable(
            head_atom,
            frozenset(head_tgd.existential_variables),
            body_atom,
        ):
            return True
    return False


def _swa_movement(tgds: Sequence[TGD]) -> dict[ExVar, set[Place]]:
    """Marnette's ``Move``: head places a null invented for ``y`` can
    propagate to, at place granularity with unification filtering."""
    movement: dict[ExVar, set[Place]] = {}
    for i, tgd in enumerate(tgds):
        for var in tgd.existential_variables:
            movement[(i, var.name)] = set(_head_places(tgd, i, var))
    for move in movement.values():
        changed = True
        while changed:
            changed = False
            for j, tgd in enumerate(tgds):
                for var in dict.fromkeys(tgd.frontier):
                    body_places = _body_places(tgd, j, var)
                    if not body_places:
                        continue
                    if not all(
                        _covered(place, move, tgds)
                        for place in body_places
                    ):
                        continue
                    for place in _head_places(tgd, j, var):
                        if place not in move:
                            move.add(place)
                            changed = True
    return movement


def super_weak_acyclicity_report(tgds: Sequence[TGD]) -> AcyclicityReport:
    """Super-weak acyclicity, with a rule-level trigger cycle as the
    witness on failure."""
    tgds = list(tgds)
    movement = _swa_movement(tgds)
    rules = [f"rule{i}" for i in range(len(tgds))]
    edges: dict[str, list[str]] = {label: [] for label in rules}
    for (source_rule, __), move in sorted(movement.items()):
        for j, tgd in enumerate(tgds):
            label = f"rule{j}"
            if label in edges[rules[source_rule]]:
                continue
            for var in dict.fromkeys(tgd.frontier):
                body_places = _body_places(tgd, j, var)
                if body_places and all(
                    _covered(place, move, tgds) for place in body_places
                ):
                    edges[rules[source_rule]].append(label)
                    break
    for targets in edges.values():
        targets.sort(key=lambda label: int(label[4:]))
    cycle = _find_cycle(rules, edges)
    return AcyclicityReport(cycle is None, cycle)


def is_super_weakly_acyclic(tgds: Sequence[TGD]) -> bool:
    return super_weak_acyclicity_report(tgds).acyclic
