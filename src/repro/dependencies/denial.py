"""Denial constraints (the paper's concluding-remarks extension).

A denial constraint (dc) over **S** is ``∀x̄ ¬φ(x̄)`` — equivalently the
rule ``φ(x̄) → ⊥`` — forbidding a pattern outright.  The paper lists
ontologies specified by tgds + egds + denial constraints as its next
target; this module provides the syntax and semantics so the property
checkers can already be exercised on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from ..homomorphisms.search import all_extensions_of, find_extension
from ..instances.instance import Instance
from ..lang.atoms import Atom, atoms_variables
from ..lang.schema import Schema
from ..lang.terms import Var
from .tgd import DependencyError, _align

__all__ = ["DenialConstraint"]


@dataclass(frozen=True)
class DenialConstraint:
    """An immutable dc ``body → ⊥`` (non-empty, constant-free body)."""

    body: tuple[Atom, ...]

    def __init__(self, body: Iterable[Atom]):
        object.__setattr__(self, "body", tuple(body))
        if not self.body:
            raise DependencyError("a denial constraint needs a body")
        for atom in self.body:
            if atom.constants():
                raise DependencyError(
                    f"denial constraints are constant-free: {atom}"
                )

    def __getstate__(self) -> dict[str, tuple[Atom, ...]]:
        # The cached text is derived; pickle the fields only.
        return {"body": self.body}

    @property
    def universal_variables(self) -> tuple[Var, ...]:
        return atoms_variables(self.body)

    @property
    def width(self) -> tuple[int, int]:
        return (len(self.universal_variables), 0)

    @property
    def schema(self) -> Schema:
        return Schema(atom.relation for atom in self.body)

    @property
    def is_linear(self) -> bool:
        return len(self.body) <= 1

    @property
    def is_guarded(self) -> bool:
        required = set(self.universal_variables)
        return any(
            required <= set(atom.variables()) for atom in self.body
        )

    def satisfied_by(self, instance: Instance) -> bool:
        """``I ⊨ ∀x̄ ¬φ(x̄)``: no homomorphism of the body."""
        inst = _align(instance, self.schema)
        return find_extension(self.body, inst) is None

    def violations(self, instance: Instance) -> list[Mapping[Var, object]]:
        inst = _align(instance, self.schema)
        return list(all_extensions_of(self.body, inst))

    def substitute(self, mapping: Mapping[Var, Var]) -> "DenialConstraint":
        return DenialConstraint(
            tuple(a.substitute(mapping) for a in self.body)
        )

    # Rendered once: the chase sorts its dependencies by their text.
    @cached_property
    def _text(self) -> str:
        body = ", ".join(str(a) for a in self.body)
        return f"{body} -> false".replace("?", "")

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"DC<{self}>"
