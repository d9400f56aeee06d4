"""Relational schemas: finite sets of relation symbols with arities.

A schema **S** is a finite set of relation symbols with associated arity.
The paper assumes positive arities, but its own Appendix F reductions use a
0-ary predicate ``Aux``; we therefore allow arity ``>= 0``.
"""

from __future__ import annotations

from functools import total_ordering
from typing import ClassVar, Iterable, Iterator

from .terms import Interned

__all__ = ["Relation", "Schema", "SchemaError"]


class SchemaError(ValueError):
    """Raised for malformed schemas or schema mismatches."""


@total_ordering
class Relation(Interned):
    """A relation symbol with its arity (``ar(R)`` in the paper).

    Hash-consed like the terms (:class:`~repro.lang.terms.Interned`):
    ``Relation("R", 2)`` is one object per process.
    """

    __slots__ = ("name", "arity")
    name: str
    arity: int

    table: ClassVar[dict[tuple[str, int], "Relation"]] = {}
    """``(name, arity)`` -> the one :class:`Relation` of that value."""

    def __new__(cls, name: str, arity: int) -> "Relation":
        relation = Relation.table.get((name, arity))
        if relation is None:
            if not name:
                raise SchemaError("relation name must be non-empty")
            if arity < 0:
                raise SchemaError(f"arity of {name!r} must be >= 0")
            relation = object.__new__(cls)
            object.__setattr__(relation, "name", name)
            object.__setattr__(relation, "arity", arity)
            relation = Relation.table.setdefault((name, arity), relation)
        return relation

    def __reduce__(self) -> tuple:
        return (Relation, (self.name, self.arity))

    def __repr__(self) -> str:
        return f"Relation(name={self.name!r}, arity={self.arity!r})"

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (self.name, self.arity) < (other.name, other.arity)


class Schema:
    """An immutable finite set of :class:`Relation` symbols.

    Iteration order is deterministic (sorted by name) so that every
    enumeration built on top of a schema is reproducible.

    >>> schema = Schema.of(("R", 2), ("S", 1))
    >>> schema.relation("R").arity
    2
    >>> [str(r) for r in schema]
    ['R/2', 'S/1']
    """

    __slots__ = ("_by_name",)

    def __init__(self, relations: Iterable[Relation]):
        by_name: dict[str, Relation] = {}
        for rel in relations:
            if not isinstance(rel, Relation):
                raise SchemaError(f"not a Relation: {rel!r}")
            existing = by_name.get(rel.name)
            if existing is not None and existing != rel:
                raise SchemaError(
                    f"conflicting arities for {rel.name}: "
                    f"{existing.arity} vs {rel.arity}"
                )
            by_name[rel.name] = rel
        self._by_name = dict(sorted(by_name.items()))

    @classmethod
    def of(cls, *specs: tuple[str, int]) -> "Schema":
        """Build a schema from ``(name, arity)`` pairs."""
        return cls(Relation(name, arity) for name, arity in specs)

    @classmethod
    def parse(cls, text: str) -> "Schema":
        """Parse ``"R/2, S/1"`` (comma or whitespace separated)."""
        specs = []
        for chunk in text.replace(",", " ").split():
            name, sep, arity = chunk.partition("/")
            if not sep:
                raise SchemaError(f"expected name/arity, got {chunk!r}")
            specs.append(Relation(name, int(arity)))
        return cls(specs)

    def relation(self, name: str) -> Relation:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def get(self, name: str) -> Relation | None:
        return self._by_name.get(name)

    @property
    def relations(self) -> tuple[Relation, ...]:
        return tuple(self._by_name.values())

    @property
    def max_arity(self) -> int:
        """``ar(S) = max_{R in S} ar(R)`` (0 for the empty schema)."""
        return max((r.arity for r in self._by_name.values()), default=0)

    def union(self, other: "Schema") -> "Schema":
        return Schema([*self.relations, *other.relations])

    @classmethod
    def combined(cls, schemas: Iterable["Schema"]) -> "Schema":
        """The union of many schemas in one pass.

        Equivalent to folding :meth:`union`, without rebuilding the
        accumulated schema per step (the fold is quadratic in the total
        relation count; combining a dependency set's schemas is a hot
        pattern in the rewriting and entailment layers).
        """
        relations: list[Relation] = []
        for schema in schemas:
            relations.extend(schema.relations)
        return cls(relations)

    def extend(self, *specs: tuple[str, int]) -> "Schema":
        return self.union(Schema.of(*specs))

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Relation):
            return self._by_name.get(item.name) == item
        if isinstance(item, str):
            return item in self._by_name
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._by_name == other._by_name

    def __hash__(self) -> int:
        return hash(tuple(self._by_name.values()))

    def __le__(self, other: "Schema") -> bool:
        """Sub-schema test: every relation of ``self`` is in ``other``."""
        return all(rel in other for rel in self)

    def __str__(self) -> str:
        return "{" + ", ".join(str(r) for r in self) + "}"

    def __repr__(self) -> str:
        return f"Schema.parse({str(self)[1:-1]!r})"
