"""Equality-generating dependencies (egds).

An egd is ``∀x̄ (φ(x̄) → x_i = x_j)`` with a non-empty, constant-free body
and ``x_i, x_j`` body variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from ..homomorphisms.search import all_extensions_of
from ..instances.instance import Instance
from ..lang.atoms import Atom, atoms_variables
from ..lang.schema import Schema
from ..lang.terms import Var
from .tgd import DependencyError, _align

__all__ = ["EGD"]


@dataclass(frozen=True)
class EGD:
    """An immutable egd ``body → lhs = rhs``."""

    body: tuple[Atom, ...]
    lhs: Var
    rhs: Var

    def __init__(self, body: Iterable[Atom], lhs: Var, rhs: Var):
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        if not self.body:
            raise DependencyError("an egd body must be non-empty")
        body_vars = set(atoms_variables(self.body))
        for var in (lhs, rhs):
            if var not in body_vars:
                raise DependencyError(
                    f"egd equality variable {var} must occur in the body"
                )
        for atom in self.body:
            if atom.constants():
                raise DependencyError(f"egds are constant-free: {atom}")

    def __getstate__(self) -> dict[str, object]:
        # The cached text is derived; pickle the fields only.
        return {"body": self.body, "lhs": self.lhs, "rhs": self.rhs}

    @property
    def universal_variables(self) -> tuple[Var, ...]:
        return atoms_variables(self.body)

    @property
    def width(self) -> tuple[int, int]:
        return (len(self.universal_variables), 0)

    @property
    def is_trivial(self) -> bool:
        """``... → x = x`` — satisfied by every instance."""
        return self.lhs == self.rhs

    @property
    def schema(self) -> Schema:
        return Schema(atom.relation for atom in self.body)

    def satisfied_by(self, instance: Instance) -> bool:
        if self.is_trivial:
            return True
        inst = _align(instance, self.schema)
        return all(
            trigger[self.lhs] == trigger[self.rhs]
            for trigger in all_extensions_of(self.body, inst)
        )

    def violations(self, instance: Instance) -> list[Mapping[Var, object]]:
        if self.is_trivial:
            return []
        inst = _align(instance, self.schema)
        return [
            trigger
            for trigger in all_extensions_of(self.body, inst)
            if trigger[self.lhs] != trigger[self.rhs]
        ]

    def as_edd(self):
        """The egd viewed as a single-disjunct edd."""
        from .edd import EDD, EqualityDisjunct

        return EDD(self.body, (EqualityDisjunct(self.lhs, self.rhs),))

    def substitute(self, mapping: Mapping[Var, Var]) -> "EGD":
        return EGD(
            tuple(a.substitute(mapping) for a in self.body),
            mapping.get(self.lhs, self.lhs),
            mapping.get(self.rhs, self.rhs),
        )

    # Rendered once: the chase sorts its dependencies by their text.
    @cached_property
    def _text(self) -> str:
        body = ", ".join(str(a) for a in self.body)
        return f"{body} -> {self.lhs} = {self.rhs}".replace("?", "")

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"EGD<{self}>"
