"""Atoms and facts.

An *atom* over a schema **S** is ``R(v1, ..., vk)`` where ``R in S`` and the
arguments are terms (variables or constants).  Dependencies in the paper are
constant-free, but queries obtained by "freezing" bodies mention constants,
so atoms accept both.

A *fact* is the ground counterpart: a relation applied to domain elements
(constants, nulls, or product tuples).  Facts and atoms are deliberately
distinct types — facts live in instances, atoms live in formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Iterable, Mapping

from .schema import Relation, SchemaError
from .terms import Const, Term, Var, term_sort_key

__all__ = ["Atom", "Fact", "atoms_variables"]


@total_ordering
@dataclass(frozen=True, slots=True)
class Atom:
    """``R(t1, ..., tk)`` with terms as arguments."""

    relation: Relation
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if len(self.args) != self.relation.arity:
            raise SchemaError(
                f"{self.relation.name} expects {self.relation.arity} "
                f"arguments, got {len(self.args)}"
            )
        for arg in self.args:
            if not isinstance(arg, (Var, Const)):
                raise SchemaError(f"atom argument must be Var or Const: {arg!r}")

    def variables(self) -> tuple[Var, ...]:
        """The variables of the atom, in order of first occurrence."""
        seen: dict[Var, None] = {}
        for arg in self.args:
            if isinstance(arg, Var):
                seen.setdefault(arg)
        return tuple(seen)

    def constants(self) -> tuple[Const, ...]:
        seen: dict[Const, None] = {}
        for arg in self.args:
            if isinstance(arg, Const):
                seen.setdefault(arg)
        return tuple(seen)

    def substitute(self, mapping: Mapping[Var, Term]) -> "Atom":
        """Apply a substitution; variables not in the mapping are kept."""
        return Atom(
            self.relation,
            tuple(
                mapping.get(arg, arg) if isinstance(arg, Var) else arg
                for arg in self.args
            ),
        )

    def to_fact(self, mapping: Mapping[Var, object] | None = None) -> "Fact":
        """Ground the atom into a fact using ``mapping`` for variables."""
        elems = []
        for arg in self.args:
            if isinstance(arg, Var):
                if mapping is None or arg not in mapping:
                    raise ValueError(f"unbound variable {arg} in {self}")
                elems.append(mapping[arg])
            else:
                elems.append(arg)
        return Fact(self.relation, tuple(elems))

    def _key(self) -> tuple:
        return (self.relation.name, tuple(term_sort_key(a) for a in self.args))

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        return self._key() < other._key()

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.relation.name}({inner})"

    def __repr__(self) -> str:
        return f"Atom<{self}>"


@total_ordering
@dataclass(frozen=True, slots=True)
class Fact:
    """A ground expression ``R(c1, ..., ck)`` over domain elements."""

    relation: Relation
    elements: tuple[object, ...]

    def __post_init__(self) -> None:
        if len(self.elements) != self.relation.arity:
            raise SchemaError(
                f"{self.relation.name} expects {self.relation.arity} "
                f"elements, got {len(self.elements)}"
            )

    def rename(self, mapping: Mapping[object, object]) -> "Fact":
        """Apply an element renaming; unmapped elements are kept."""
        return Fact(self.relation, tuple(mapping.get(e, e) for e in self.elements))

    def _key(self) -> tuple:
        return (self.relation.name, tuple(term_sort_key(e) for e in self.elements))

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Fact):
            return NotImplemented
        return self._key() < other._key()

    def __str__(self) -> str:
        inner = ", ".join(str(e) for e in self.elements)
        return f"{self.relation.name}({inner})"

    def __repr__(self) -> str:
        return f"Fact<{self}>"


def atoms_variables(atoms: Iterable[Atom]) -> tuple[Var, ...]:
    """All variables of a conjunction of atoms, first-occurrence order."""
    seen: dict[Var, None] = {}
    for atom in atoms:
        for var in atom.variables():
            seen.setdefault(var)
    return tuple(seen)
