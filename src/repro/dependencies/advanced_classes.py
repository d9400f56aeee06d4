"""Set-level Datalog± classes: affected positions, weak guardedness,
and stickiness.

The classes of Section 2 (full / linear / guarded / frontier-guarded)
are per-tgd; the wider Datalog± family the paper builds on
(Calì–Gottlob–Kifer/Lukasiewicz/Pieris) also uses *set-level* classes
that look at how rules interact:

* **affected positions** — the positions that may carry labeled nulls in
  the chase: positions of existential variables, closed under
  propagation through frontier variables that occur only at affected
  body positions;
* **weakly guarded** — some body atom of each rule covers all the
  universally quantified variables occurring *only at affected
  positions* (guardedness relaxed to where nulls can actually appear);
* **sticky** — the marking procedure: variables that can be "lost"
  (body variables missing from the head, propagated backwards through
  head positions) may not be join variables.

These make `classify`-style tooling complete enough to place a given Σ
in the standard decidability map.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..lang.atoms import Atom
from ..lang.terms import Var
from .tgd import TGD

__all__ = [
    "affected_positions",
    "is_weakly_guarded_set",
    "sticky_marking",
    "is_sticky_set",
]

Position = tuple[str, int]  # (relation name, argument index)


def _positions_of(atoms: Sequence[Atom], var: Var) -> tuple[Position, ...]:
    """The positions at which ``var`` occurs, first occurrence first."""
    positions: dict[Position, None] = {}
    for atom in atoms:
        for index, arg in enumerate(atom.args):
            if arg == var:
                positions.setdefault((atom.relation.name, index))
    return tuple(positions)


def _closure(
    tgds: Sequence[TGD], seed: Iterable[Position]
) -> frozenset[Position]:
    """The least superset of ``seed`` closed under: a frontier variable
    whose (non-empty) body positions all lie in the set adds its head
    positions.  Affected positions and joint acyclicity's ``Mov(y)``
    differ only in the seed."""
    reached = set(seed)
    changed = True
    while changed:
        changed = False
        for tgd in tgds:
            for var in tgd.frontier:
                body_positions = _positions_of(tgd.body, var)
                if body_positions and all(
                    pos in reached for pos in body_positions
                ):
                    for pos in _positions_of(tgd.head, var):
                        if pos not in reached:
                            reached.add(pos)
                            changed = True
    return frozenset(reached)


def affected_positions(tgds: Sequence[TGD]) -> frozenset[Position]:
    """The positions that can hold labeled nulls in some chase.

    Base: positions of existential variables in heads.  Step: a head
    position of a frontier variable is affected if *every* body position
    of that variable is affected.
    """
    return _closure(
        tgds,
        (
            pos
            for tgd in tgds
            for var in tgd.existential_variables
            for pos in _positions_of(tgd.head, var)
        ),
    )


def is_weakly_guarded_set(tgds: Sequence[TGD]) -> bool:
    """Weak guardedness: per rule, some body atom contains every
    universally quantified variable that occurs *only* at affected
    positions of the body.

    Every guarded set is weakly guarded (the guard covers everything).
    """
    affected = affected_positions(tgds)
    for tgd in tgds:
        if not tgd.body:
            continue
        dangerous = [
            var
            for var in tgd.universal_variables
            if all(
                pos in affected for pos in _positions_of(tgd.body, var)
            )
        ]
        required = set(dangerous)
        if not any(
            required <= set(atom.variables()) for atom in tgd.body
        ):
            return False
    return True


def sticky_marking(tgds: Sequence[TGD]) -> dict[int, frozenset[Var]]:
    """The sticky marking, per rule index.

    Initial step: mark every body variable of σ that does not occur in
    ``head(σ)``.  Propagation: if a marked variable of some rule occurs
    in its body at position π, then for every rule whose *head* has a
    universally quantified variable at π, mark that variable (in that
    rule's body).  Repeat to fixpoint.
    """
    marked: dict[int, set[Var]] = {i: set() for i in range(len(tgds))}
    for i, tgd in enumerate(tgds):
        head_vars = {v for atom in tgd.head for v in atom.variables()}
        for var in tgd.universal_variables:
            if var not in head_vars:
                marked[i].add(var)
    changed = True
    while changed:
        changed = False
        marked_positions: set[Position] = {
            pos
            for i, tgd in enumerate(tgds)
            for var in marked[i]
            for pos in _positions_of(tgd.body, var)
        }
        for i, tgd in enumerate(tgds):
            frontier = set(tgd.frontier)
            for atom in tgd.head:
                for index, arg in enumerate(atom.args):
                    if (
                        isinstance(arg, Var)
                        and arg in frontier
                        and (atom.relation.name, index) in marked_positions
                        and arg not in marked[i]
                    ):
                        marked[i].add(arg)
                        changed = True
    return {i: frozenset(vars_) for i, vars_ in marked.items()}


def is_sticky_set(tgds: Sequence[TGD]) -> bool:
    """Stickiness: no marked variable occurs more than once in its
    rule's body."""
    tgds = list(tgds)
    marking = sticky_marking(tgds)
    for i, tgd in enumerate(tgds):
        for var in marking[i]:
            occurrences = sum(
                1
                for atom in tgd.body
                for arg in atom.args
                if arg == var
            )
            if occurrences > 1:
                return False
    return True
