"""Existential disjunctive dependencies (edds) — Section 4.1.

An edd is ``∀x̄ (φ(x̄) → ⋁_{i=1..k} ψ_i(x̄_i))`` where each disjunct is
either an equality ``y = z`` over body variables, or an existentially
quantified conjunction ``∃ȳ_i χ_i(x̄_i, ȳ_i)``.

The class ``E_{n,m}`` (Step 1 of the proof of Theorem 4.1) consists of the
edds with at most ``n`` universally quantified variables whose disjuncts
each mention at most ``n + m`` distinct variables (so at most ``m``
existential ones).

A *disjunctive dependency* (dd, Appendix B) is an edd whose relational
disjuncts are single atoms without existential variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from ..homomorphisms.search import all_extensions_of, satisfies_atoms
from ..instances.instance import Instance
from ..lang.atoms import Atom, atoms_variables
from ..lang.schema import Schema
from ..lang.terms import Var
from .tgd import TGD, DependencyError, _align

__all__ = ["EqualityDisjunct", "ExistentialDisjunct", "Disjunct", "EDD"]


@dataclass(frozen=True)
class EqualityDisjunct:
    """``y = z`` over body variables."""

    lhs: Var
    rhs: Var

    def variables(self) -> tuple[Var, ...]:
        return (self.lhs, self.rhs) if self.lhs != self.rhs else (self.lhs,)

    def holds(self, trigger: Mapping[Var, object], instance: Instance) -> bool:
        return trigger[self.lhs] == trigger[self.rhs]

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}".replace("?", "")


@dataclass(frozen=True)
class ExistentialDisjunct:
    """``∃ȳ χ(x̄_i, ȳ)``; the existential variables are implicit (those not
    bound by the trigger at evaluation time)."""

    atoms: tuple[Atom, ...]

    def __init__(self, atoms: Iterable[Atom]):
        object.__setattr__(self, "atoms", tuple(atoms))
        if not self.atoms:
            raise DependencyError("an existential disjunct must be non-empty")

    def variables(self) -> tuple[Var, ...]:
        return atoms_variables(self.atoms)

    def holds(self, trigger: Mapping[Var, object], instance: Instance) -> bool:
        known = {
            var: elem
            for var, elem in trigger.items()
            if var in set(self.variables())
        }
        return satisfies_atoms(self.atoms, instance, known)

    def __str__(self) -> str:
        return ", ".join(str(a) for a in self.atoms).replace("?", "")


Disjunct = Union[EqualityDisjunct, ExistentialDisjunct]


@dataclass(frozen=True)
class EDD:
    """An immutable edd ``body → d1 | d2 | ... | dk``."""

    body: tuple[Atom, ...]
    disjuncts: tuple[Disjunct, ...]

    def __init__(self, body: Iterable[Atom], disjuncts: Iterable[Disjunct]):
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "disjuncts", tuple(disjuncts))
        if not self.disjuncts:
            raise DependencyError("an edd needs at least one disjunct")
        body_vars = set(atoms_variables(self.body))
        for disjunct in self.disjuncts:
            if isinstance(disjunct, EqualityDisjunct):
                for var in disjunct.variables():
                    if var not in body_vars:
                        raise DependencyError(
                            f"equality variable {var} must occur in the body"
                        )
        for atom in self.body:
            if atom.constants():
                raise DependencyError(f"edds are constant-free: {atom}")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def universal_variables(self) -> tuple[Var, ...]:
        return atoms_variables(self.body)

    def existential_variables_of(
        self, disjunct: Disjunct
    ) -> tuple[Var, ...]:
        if isinstance(disjunct, EqualityDisjunct):
            return ()
        body_vars = set(self.universal_variables)
        return tuple(
            v for v in disjunct.variables() if v not in body_vars
        )

    @property
    def width(self) -> tuple[int, int]:
        """``(n, m)``: universal count, max existential count per disjunct."""
        n = len(self.universal_variables)
        m = max(
            (
                len(self.existential_variables_of(d))
                for d in self.disjuncts
            ),
            default=0,
        )
        return (n, m)

    @property
    def schema(self) -> Schema:
        atoms = list(self.body)
        for disjunct in self.disjuncts:
            if isinstance(disjunct, ExistentialDisjunct):
                atoms.extend(disjunct.atoms)
        return Schema(atom.relation for atom in atoms)

    @property
    def is_tgd(self) -> bool:
        return len(self.disjuncts) == 1 and isinstance(
            self.disjuncts[0], ExistentialDisjunct
        )

    @property
    def is_egd(self) -> bool:
        return len(self.disjuncts) == 1 and isinstance(
            self.disjuncts[0], EqualityDisjunct
        )

    @property
    def is_dd(self) -> bool:
        """Disjunctive dependency: no existential variables, and each
        relational disjunct is a single atom."""
        for disjunct in self.disjuncts:
            if isinstance(disjunct, ExistentialDisjunct):
                if len(disjunct.atoms) != 1:
                    return False
                if self.existential_variables_of(disjunct):
                    return False
        return True

    def as_tgd(self) -> TGD:
        if not self.is_tgd:
            raise DependencyError(f"not a tgd: {self}")
        disjunct = self.disjuncts[0]
        assert isinstance(disjunct, ExistentialDisjunct)
        return TGD(self.body, disjunct.atoms)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def satisfied_by(self, instance: Instance) -> bool:
        inst = _align(instance, self.schema)
        for trigger in all_extensions_of(self.body, inst):
            if not any(d.holds(trigger, inst) for d in self.disjuncts):
                return False
        return True

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.body)
        head = " | ".join(str(d) for d in self.disjuncts)
        return f"{body} -> {head}".replace("?", "")

    def __repr__(self) -> str:
        return f"EDD<{self}>"
