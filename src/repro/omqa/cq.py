"""Conjunctive queries with answer variables.

The paper motivates tgds through *ontology-mediated query answering*
(OMQA): evaluating a query over a database together with an ontology,
under certain-answer semantics.  This module provides the query side:
CQs with distinguished answer variables, evaluation over instances, and
chase-based certain answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

from ..chase.engine import chase
from ..analysis.certificates import default_budget
from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..homomorphisms.search import all_extensions_of
from ..instances.instance import Instance
from ..lang.atoms import Atom, atoms_variables
from ..lang.parser import parse_atoms
from ..lang.schema import Schema
from ..lang.terms import Const, Null, Var

__all__ = ["CQ", "UCQ", "certain_answers"]


@dataclass(frozen=True)
class CQ:
    """``q(x̄) :- a1, ..., ak`` — a conjunctive query.

    ``answer`` lists the distinguished (free) variables, in order; all
    other variables are existential.  Constants are allowed in atoms.
    """

    atoms: tuple[Atom, ...]
    answer: tuple[Var, ...]

    def __init__(self, atoms: Iterable[Atom], answer: Iterable[Var] = ()):
        object.__setattr__(self, "atoms", tuple(atoms))
        object.__setattr__(self, "answer", tuple(answer))
        if not self.atoms:
            raise ValueError("a CQ needs at least one atom")
        variables = set(atoms_variables(self.atoms))
        for var in self.answer:
            if var not in variables:
                raise ValueError(
                    f"answer variable {var} does not occur in the query"
                )

    @classmethod
    def parse(
        cls, text: str, schema: Schema | None = None
    ) -> "CQ":
        """Parse ``"x, y <- R(x, z), S(z, y)"`` (or just a conjunction
        for a Boolean query)."""
        head_text, sep, body_text = text.partition("<-")
        if not sep:
            body_text, head_text = text, ""
        atoms = parse_atoms(body_text, schema)
        answer = tuple(
            Var(name.strip())
            for name in head_text.split(",")
            if name.strip()
        )
        return cls(atoms, answer)

    @property
    def is_boolean(self) -> bool:
        return not self.answer

    @property
    def schema(self) -> Schema:
        return Schema(atom.relation for atom in self.atoms)

    def variables(self) -> tuple[Var, ...]:
        return atoms_variables(self.atoms)

    def existential_variables(self) -> tuple[Var, ...]:
        answer = set(self.answer)
        return tuple(v for v in self.variables() if v not in answer)

    def evaluate(self, instance: Instance) -> set[tuple]:
        """All answer tuples over the instance (a single empty tuple for
        a satisfied Boolean query)."""
        target = instance
        if not self.schema <= instance.schema:
            target = instance.with_schema(instance.schema.union(self.schema))
        results = set()
        for assignment in all_extensions_of(self.atoms, target):
            results.add(tuple(assignment[v] for v in self.answer))
        return results

    def holds_in(self, instance: Instance) -> bool:
        return bool(self.evaluate(instance))

    def substitute(self, mapping) -> "CQ":
        """Apply a variable substitution (answer variables must stay
        variables)."""
        new_answer = []
        for var in self.answer:
            image = mapping.get(var, var)
            if not isinstance(image, Var):
                raise ValueError(
                    f"answer variable {var} mapped to non-variable {image}"
                )
            new_answer.append(image)
        return CQ(
            tuple(a.substitute(mapping) for a in self.atoms),
            tuple(new_answer),
        )

    def __str__(self) -> str:
        head = ", ".join(v.name for v in self.answer)
        body = ", ".join(str(a) for a in self.atoms)
        return f"{head} <- {body}".replace("?", "") if head else body.replace("?", "")

    def __repr__(self) -> str:
        return f"CQ<{self}>"


@dataclass(frozen=True)
class UCQ:
    """A union of CQs with the same answer arity."""

    disjuncts: tuple[CQ, ...]

    def __init__(self, disjuncts: Iterable[CQ]):
        object.__setattr__(self, "disjuncts", tuple(disjuncts))
        if not self.disjuncts:
            raise ValueError("a UCQ needs at least one disjunct")
        arities = {len(q.answer) for q in self.disjuncts}
        if len(arities) != 1:
            raise ValueError("all UCQ disjuncts must share the answer arity")

    def evaluate(self, instance: Instance) -> set[tuple]:
        results: set[tuple] = set()
        for disjunct in self.disjuncts:
            results |= disjunct.evaluate(instance)
        return results

    def __len__(self) -> int:
        return len(self.disjuncts)

    def __iter__(self) -> Iterator[CQ]:
        return iter(self.disjuncts)

    def __str__(self) -> str:
        return "  ∪  ".join(str(q) for q in self.disjuncts)


def certain_answers(
    database: Instance,
    dependencies: Sequence[Union[TGD, EGD]],
    query: CQ,
    *,
    max_rounds: int | None = None,
    order: str | None = None,
) -> set[tuple]:
    """Certain answers of ``query`` over ``database`` and the ontology.

    Computed by chasing and keeping the *null-free* answers (a certain
    answer may not mention invented values).  Complete when the chase
    terminates; sound always.  A failing chase (egd clash) makes every
    tuple over the active domain certain; we surface that as the answers
    over the database itself, which is the standard convention for
    inconsistent exchange settings is out of scope — we raise instead.

    ``order`` selects the chase's join-ordering strategy (``None`` →
    the chase default); the answer set is invariant in it.
    """
    budget = max_rounds
    if budget is None:
        budget = default_budget(dependencies, 12)
    result = chase(database, dependencies, max_rounds=budget, order=order)
    if result.failed:
        raise ValueError(
            "the chase failed (egd clash): certain answers are trivial"
        )
    answers = query.evaluate(result.instance)
    return {
        tup
        for tup in answers
        if not any(isinstance(elem, Null) for elem in tup)
    }
