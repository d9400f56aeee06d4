"""Tuple-generating dependencies (tgds).

A tgd over a schema **S** is a constant-free sentence

    ∀x̄ ∀ȳ ( φ(x̄, ȳ) → ∃z̄ ψ(x̄, z̄) )

where φ (the *body*) is a possibly empty conjunction of atoms and ψ (the
*head*) a non-empty one.  The universally quantified variables are exactly
the body variables; the head may use body variables (its *frontier*) and
fresh existential variables.

Width convention (``TGD_{n,m}``): ``n`` bounds the number of universally
quantified variables, ``m`` the number of existentially quantified ones.

The central syntactic subclasses (Section 2):

* **full** — no existential variables;
* **linear** — at most one body atom;
* **guarded** — empty body, or some body atom contains *all* universally
  quantified variables;
* **frontier-guarded** — empty body, or some body atom contains all the
  frontier variables.

``LTGD ⊊ GTGD ⊊ FGTGD`` and ``FGTGD ≠ FTGD``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from ..instances.instance import Instance
from ..homomorphisms.search import all_extensions_of, satisfies_atoms
from ..lang.atoms import Atom, atoms_variables
from ..lang.schema import Schema
from ..lang.terms import FreshVars, Var

__all__ = ["TGD", "DependencyError"]


class DependencyError(ValueError):
    """Raised for malformed dependencies."""


@dataclass(frozen=True)
class TGD:
    """An immutable tgd ``body → head``."""

    body: tuple[Atom, ...]
    head: tuple[Atom, ...]

    def __init__(self, body: Iterable[Atom], head: Iterable[Atom]):
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "head", tuple(head))
        if not self.head:
            raise DependencyError("a tgd head must be non-empty")
        for atom in (*self.body, *self.head):
            if atom.constants():
                raise DependencyError(f"tgds are constant-free: {atom}")
        # existential_variables caches universal_variables on the way.
        if not self.existential_variables and not self.universal_variables:
            raise DependencyError("a tgd has at least one variable")

    def __getstate__(self) -> dict[str, tuple[Atom, ...]]:
        # The cached variable tuples and text are derived; pickle the
        # fields only.
        return {"body": self.body, "head": self.head}

    # ------------------------------------------------------------------
    # Variables and width
    # ------------------------------------------------------------------

    # Computed once: the chase reads them on every firing or sweep.
    @cached_property
    def universal_variables(self) -> tuple[Var, ...]:
        """x̄ ∪ ȳ: all body variables."""
        return atoms_variables(self.body)

    @cached_property
    def frontier(self) -> tuple[Var, ...]:
        """fr(σ): universally quantified variables occurring in the head."""
        body_vars = set(self.universal_variables)
        return tuple(
            v for v in atoms_variables(self.head) if v in body_vars
        )

    @cached_property
    def existential_variables(self) -> tuple[Var, ...]:
        """z̄: head variables that do not occur in the body."""
        body_vars = set(self.universal_variables)
        return tuple(
            v for v in atoms_variables(self.head) if v not in body_vars
        )

    @property
    def width(self) -> tuple[int, int]:
        """``(n, m)``: universally / existentially quantified counts."""
        return (
            len(self.universal_variables),
            len(self.existential_variables),
        )

    def variables(self) -> tuple[Var, ...]:
        return atoms_variables((*self.body, *self.head))

    @property
    def schema(self) -> Schema:
        return Schema(
            atom.relation for atom in (*self.body, *self.head)
        )

    # ------------------------------------------------------------------
    # Syntactic classes
    # ------------------------------------------------------------------

    @property
    def is_full(self) -> bool:
        return not self.existential_variables

    @property
    def is_linear(self) -> bool:
        return len(self.body) <= 1

    @property
    def is_guarded(self) -> bool:
        if not self.body:
            return True
        required = set(self.universal_variables)
        return any(
            required <= set(atom.variables()) for atom in self.body
        )

    @property
    def is_frontier_guarded(self) -> bool:
        if not self.body:
            return True
        required = set(self.frontier)
        return any(
            required <= set(atom.variables()) for atom in self.body
        )

    def guards(self) -> tuple[Atom, ...]:
        """The body atoms containing all universally quantified variables."""
        required = set(self.universal_variables)
        return tuple(
            atom for atom in self.body if required <= set(atom.variables())
        )

    def frontier_guards(self) -> tuple[Atom, ...]:
        required = set(self.frontier)
        return tuple(
            atom for atom in self.body if required <= set(atom.variables())
        )

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def satisfied_by(self, instance: Instance) -> bool:
        """``I ⊨ σ``: every body match extends to a head match."""
        inst = _align(instance, self.schema)
        for trigger in all_extensions_of(self.body, inst):
            if not satisfies_atoms(self.head, inst, trigger):
                return False
        return True

    def violations(self, instance: Instance) -> list[dict[Var, object]]:
        """All body matches with no head extension (active triggers)."""
        inst = _align(instance, self.schema)
        return [
            trigger
            for trigger in all_extensions_of(self.body, inst)
            if not satisfies_atoms(self.head, inst, trigger)
        ]

    def as_edd(self):
        """The tgd viewed as a single-disjunct edd."""
        from .edd import EDD, ExistentialDisjunct

        return EDD(self.body, (ExistentialDisjunct(self.head),))

    # ------------------------------------------------------------------
    # Renaming
    # ------------------------------------------------------------------

    def substitute(self, mapping: Mapping[Var, Var]) -> "TGD":
        return TGD(
            tuple(a.substitute(mapping) for a in self.body),
            tuple(a.substitute(mapping) for a in self.head),
        )

    def rename_apart(self, avoid: Sequence[Var], prefix: str = "u") -> "TGD":
        """A variant whose variables avoid ``avoid``."""
        fresh = FreshVars(prefix=prefix, avoid=iter(avoid))
        mapping = {v: fresh() for v in self.variables()}
        return self.substitute(mapping)

    # Rendered once: the chase sorts its dependencies by their text.
    @cached_property
    def _text(self) -> str:
        body = ", ".join(str(a) for a in self.body)
        head = ", ".join(str(a) for a in self.head)
        exist = self.existential_variables
        if exist:
            names = ", ".join(v.name for v in exist)
            head = f"exists {names} . {head}"
        return f"{body} -> {head}".replace("?", "")

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"TGD<{self}>"


def _align(instance: Instance, needed: Schema) -> Instance:
    """Allow evaluating a dependency on an instance over a super-schema, or
    extend the instance when the dependency mentions extra relations."""
    if needed <= instance.schema:
        return instance
    return instance.with_schema(instance.schema.union(needed))
