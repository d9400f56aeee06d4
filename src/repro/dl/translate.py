"""Translating DL TBoxes into dependencies over unary/binary schemas.

Concept names become unary predicates, role names binary ones:

    A ⊑ B            A(x) → B(x)                       (linear, full)
    ∃R ⊑ A           R(x, y) → A(x)                    (linear, full)
    ∃R⁻ ⊑ A          R(y, x) → A(x)                    (linear, full)
    A ⊑ ∃R           A(x) → ∃z R(x, z)                 (linear)
    A ⊑ ∃R.B         A(x) → ∃z (R(x, z) ∧ B(z))        (linear)
    A ⊓ B ⊑ C        A(x), B(x) → C(x)                 (guarded, not linear*)
    R ⊑ S            R(x, y) → S(x, y)                 (linear, full)
    A ⊓ B ⊑ ⊥        A(x), B(x) → ⊥                    (denial constraint)
    (funct R)        R(x, y), R(x, z) → y = z          (egd)

(*) the conjunction rule is the one EL feature that leaves the linear
class — exactly the Σ_G shape of the paper's Section 9.1 separation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from ..dependencies.denial import DenialConstraint
from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..instances.instance import Instance
from ..lang.atoms import Atom, Fact
from ..lang.schema import Relation, Schema
from ..lang.terms import Const, Var
from .syntax import (
    And,
    AtomicConcept,
    Axiom,
    Concept,
    ConceptInclusion,
    Disjointness,
    DLError,
    Exists,
    FunctionalRole,
    Role,
    RoleInclusion,
)

__all__ = ["TBox", "translate_axiom", "abox_instance"]

Dependency = Union[TGD, EGD, DenialConstraint]

_X = Var("x")
_Y = Var("y")
_Z = Var("z")


def _concept_relation(concept: AtomicConcept) -> Relation:
    return Relation(concept.name, 1)


def _role_relation(role: Role) -> Relation:
    return Relation(role.name, 2)


def _role_atom(role: Role, subject: Var, target: Var) -> Atom:
    if role.inverted:
        subject, target = target, subject
    return Atom(_role_relation(role), (subject, target))


def _lhs_atoms(concept: Concept) -> tuple[Atom, ...]:
    """Body atoms for a left-hand-side concept, with ``x`` the instance
    variable."""
    if isinstance(concept, AtomicConcept):
        return (Atom(_concept_relation(concept), (_X,)),)
    if isinstance(concept, Exists):
        if concept.filler is not None:
            return (
                _role_atom(concept.role, _X, _Y),
                Atom(_concept_relation(concept.filler), (_Y,)),
            )
        return (_role_atom(concept.role, _X, _Y),)
    if isinstance(concept, And):
        return (
            Atom(_concept_relation(concept.left), (_X,)),
            Atom(_concept_relation(concept.right), (_X,)),
        )
    raise DLError(f"unsupported LHS concept {concept}")


def _rhs_atoms(concept: Concept) -> tuple[Atom, ...]:
    """Head atoms for a right-hand-side concept (``x`` again)."""
    if isinstance(concept, AtomicConcept):
        return (Atom(_concept_relation(concept), (_X,)),)
    if isinstance(concept, Exists):
        atoms = [_role_atom(concept.role, _X, _Z)]
        if concept.filler is not None:
            atoms.append(Atom(_concept_relation(concept.filler), (_Z,)))
        return tuple(atoms)
    raise DLError(f"unsupported RHS concept {concept} (no ⊓ on the right)")


def translate_axiom(axiom: Axiom) -> Dependency:
    """One axiom → one dependency."""
    if isinstance(axiom, ConceptInclusion):
        return TGD(_lhs_atoms(axiom.lhs), _rhs_atoms(axiom.rhs))
    if isinstance(axiom, RoleInclusion):
        return TGD(
            (_role_atom(axiom.lhs, _X, _Y),),
            (_role_atom(axiom.rhs, _X, _Y),),
        )
    if isinstance(axiom, Disjointness):
        return DenialConstraint(
            (
                Atom(_concept_relation(axiom.left), (_X,)),
                Atom(_concept_relation(axiom.right), (_X,)),
            )
        )
    if isinstance(axiom, FunctionalRole):
        return EGD(
            (
                _role_atom(axiom.role, _X, _Y),
                _role_atom(axiom.role, _X, _Z),
            ),
            _Y,
            _Z,
        )
    raise DLError(f"unsupported axiom {axiom!r}")


@dataclass(frozen=True)
class TBox:
    """A DL TBox and its relational translation."""

    axioms: tuple[Axiom, ...]

    def __init__(self, axioms: Iterable[Axiom]):
        object.__setattr__(self, "axioms", tuple(axioms))

    def dependencies(self) -> tuple[Dependency, ...]:
        return tuple(translate_axiom(a) for a in self.axioms)

    def tgds(self) -> tuple[TGD, ...]:
        return tuple(
            d for d in self.dependencies() if isinstance(d, TGD)
        )

    def schema(self) -> Schema:
        return Schema.combined(
            dep.schema for dep in self.dependencies()
        )

    def is_dl_lite(self) -> bool:
        """No ⊓ on any left-hand side — then every tgd is linear."""
        return all(
            not (
                isinstance(a, ConceptInclusion) and isinstance(a.lhs, And)
            )
            for a in self.axioms
        )

    def __str__(self) -> str:
        return "\n".join(str(a) for a in self.axioms)


def abox_instance(
    assertions: Iterable[tuple], schema: Schema | None = None
) -> Instance:
    """Build a database from ABox assertions.

    Assertions are ``("A", "ind")`` for concept membership and
    ``("R", "ind1", "ind2")`` for role membership.
    """
    facts = []
    for assertion in assertions:
        name, *individuals = assertion
        if len(individuals) == 1:
            rel = Relation(name, 1)
        elif len(individuals) == 2:
            rel = Relation(name, 2)
        else:
            raise DLError(f"malformed assertion {assertion!r}")
        facts.append(Fact(rel, tuple(Const(str(i)) for i in individuals)))
    if schema is None:
        schema = Schema(fact.relation for fact in facts)
    return Instance.from_facts(schema, facts)
