"""Boolean conjunctive queries and certain answers over tgd/egd ontologies.

``D ∪ Σ ⊨ q`` for a BCQ ``q`` is answered by chasing ``D`` with ``Σ`` and
evaluating ``q`` on the result (soundness holds for any chase prefix;
completeness needs a terminated chase).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..analysis.certificates import default_budget
from ..chase.engine import ChaseResult, chase
from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..homomorphisms.search import satisfies_atoms
from ..instances.instance import Instance
from ..lang.atoms import Atom
from ..lang.schema import Schema
from .trivalent import TriBool

__all__ = ["BCQ", "certain_answer", "DEFAULT_CHASE_ROUNDS"]

DEFAULT_CHASE_ROUNDS = 12


@dataclass(frozen=True)
class BCQ:
    """A Boolean conjunctive query ``∃x̄ (a1 ∧ ... ∧ ak)``.

    Constants in the atoms are matched exactly; all variables are
    existential.
    """

    atoms: tuple[Atom, ...]

    def __init__(self, atoms: Iterable[Atom]):
        object.__setattr__(self, "atoms", tuple(atoms))
        if not self.atoms:
            raise ValueError("a BCQ must have at least one atom")

    @property
    def schema(self) -> Schema:
        return Schema(atom.relation for atom in self.atoms)

    def holds_in(self, instance: Instance) -> bool:
        target = instance
        if not self.schema <= instance.schema:
            target = instance.with_schema(instance.schema.union(self.schema))
        return satisfies_atoms(self.atoms, target)

    def __str__(self) -> str:
        return (
            "exists . " + ", ".join(str(a) for a in self.atoms)
        ).replace("?", "")


def _run_chase(
    database: Instance,
    dependencies: Sequence[TGD | EGD],
    max_rounds: int | None,
) -> ChaseResult:
    budget = max_rounds
    if budget is None:
        budget = default_budget(dependencies, DEFAULT_CHASE_ROUNDS)
    return chase(database, dependencies, max_rounds=budget)


def certain_answer(
    database: Instance,
    dependencies: Sequence[TGD | EGD],
    query: BCQ,
    *,
    max_rounds: int | None = None,
) -> TriBool:
    """Is ``query`` certain over ``database`` under ``dependencies``?

    With ``max_rounds=None``, weakly acyclic sets are chased to
    completion (definitive answer); other sets get a default budget and
    may return ``UNKNOWN``.  A failing chase (egd clash) entails
    everything.
    """
    result = _run_chase(database, dependencies, max_rounds)
    if result.failed:
        return TriBool.TRUE
    if query.holds_in(result.instance):
        return TriBool.TRUE
    return TriBool.FALSE if result.terminated else TriBool.UNKNOWN
