"""Terms of the relational language: constants, variables, and labeled nulls.

The paper fixes two disjoint countably infinite sets **C** (constants) and
**V** (variables).  The chase additionally introduces *labeled nulls*, which
behave like constants (they are domain elements) but are distinguishable so
that universality arguments and pretty-printing stay readable.

Domain elements of instances are :class:`Const`, :class:`Null`, or — for
direct products — tuples of domain elements (see
:mod:`repro.instances.operations`).  Anything hashable works as a domain
element; the classes here are the canonical citizens.
"""

from __future__ import annotations

import itertools
from functools import total_ordering
from typing import ClassVar, Iterable, Union

__all__ = [
    "Interned",
    "Const",
    "Var",
    "Null",
    "Term",
    "DomainElement",
    "FreshVars",
    "FreshNulls",
    "FreshConsts",
    "term_sort_key",
    "element_sort_key",
]


class Interned:
    """Base of the hash-consed value classes: one live object per value.

    Each subclass keeps a process-lifetime table from its value to its
    one instance, and its ``__new__`` returns the tabled object (making
    it on a miss).  Equal values are therefore the same object, so
    equality and hashing are the inherited identity ones, which run in
    C.  The tables are never cleared: clearing one would make a new
    ``Const("a")`` unequal to a live one.  They grow with the distinct
    values a process sees, as :func:`sys.intern` does.

    Instances are immutable; copies and pickles come back as the
    tabled object.  A miss fills the table with ``dict.setdefault``, so
    when two threads race on one value, both get the object that won.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"cannot assign to field {name!r} of an interned "
            f"{type(self).__name__}"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"cannot delete field {name!r} of an interned "
            f"{type(self).__name__}"
        )

    def __copy__(self) -> "Interned":
        return self

    def __deepcopy__(self, memo: dict) -> "Interned":
        return self


@total_ordering
class Const(Interned):
    """A constant from the countably infinite set **C**."""

    __slots__ = ("name",)
    name: str

    table: ClassVar[dict[str, "Const"]] = {}
    """Name -> the one :class:`Const` of that name."""

    def __new__(cls, name: str) -> "Const":
        const = Const.table.get(name)
        if const is None:
            const = object.__new__(cls)
            object.__setattr__(const, "name", name)
            const = Const.table.setdefault(name, const)
        return const

    def __reduce__(self) -> tuple:
        return (Const, (self.name,))

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Const({self.name!r})"

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Const):
            return NotImplemented
        return self.name < other.name


@total_ordering
class Var(Interned):
    """A variable from the countably infinite set **V**."""

    __slots__ = ("name",)
    name: str

    table: ClassVar[dict[str, "Var"]] = {}
    """Name -> the one :class:`Var` of that name."""

    def __new__(cls, name: str) -> "Var":
        var = Var.table.get(name)
        if var is None:
            var = object.__new__(cls)
            object.__setattr__(var, "name", name)
            var = Var.table.setdefault(name, var)
        return var

    def __reduce__(self) -> tuple:
        return (Var, (self.name,))

    def __str__(self) -> str:
        return f"?{self.name}"

    def __repr__(self) -> str:
        return f"Var({self.name!r})"

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Var):
            return NotImplemented
        return self.name < other.name


@total_ordering
class Null(Interned):
    """A labeled null introduced by the chase.

    Nulls are domain elements: two nulls are equal iff their indices are.
    """

    __slots__ = ("index",)
    index: int

    table: ClassVar[dict[int, "Null"]] = {}
    """Index -> the one :class:`Null` of that index."""

    def __new__(cls, index: int) -> "Null":
        null = Null.table.get(index)
        if null is None:
            null = object.__new__(cls)
            object.__setattr__(null, "index", index)
            null = Null.table.setdefault(index, null)
        return null

    def __reduce__(self) -> tuple:
        return (Null, (self.index,))

    def __str__(self) -> str:
        return f"_N{self.index}"

    def __repr__(self) -> str:
        return f"Null({self.index})"

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Null):
            return NotImplemented
        return self.index < other.index


Term = Union[Const, Var]
DomainElement = object  # Const | Null | tuple[...] — any hashable


_KIND_RANK = {Const: 0, Null: 1, Var: 2, tuple: 3}


def term_sort_key(term: object) -> tuple:
    """A deterministic sort key that works across term kinds."""
    if isinstance(term, Const):
        return (0, term.name)
    if isinstance(term, Null):
        return (1, term.index)
    if isinstance(term, Var):
        return (2, term.name)
    if isinstance(term, tuple):
        return (3, tuple(term_sort_key(part) for part in term))
    return (4, repr(term))


# Domain elements sort with the same key; exported under a clearer name.
element_sort_key = term_sort_key


class FreshVars:
    """A factory of fresh variables ``z0, z1, ...`` avoiding a given set."""

    def __init__(self, prefix: str = "z", avoid: Iterable[Var] | None = None):
        self._prefix = prefix
        self._taken = {v.name for v in (avoid or ())}
        self._counter = itertools.count()

    def __call__(self) -> Var:
        while True:
            name = f"{self._prefix}{next(self._counter)}"
            if name not in self._taken:
                self._taken.add(name)
                return Var(name)

    def take(self, count: int) -> list[Var]:
        return [self() for _ in range(count)]


class FreshNulls:
    """A factory of fresh labeled nulls with a shared monotone counter."""

    def __init__(self, start: int = 0):
        self._counter = itertools.count(start)

    def __call__(self) -> Null:
        return Null(next(self._counter))

    def take(self, count: int) -> list[Null]:
        return [self() for _ in range(count)]


class FreshConsts:
    """A factory of fresh constants ``@c0, @c1, ...`` avoiding a given set.

    Used when "freezing" the body of a dependency into a database
    (Maier–Mendelzon–Sagiv) and when renaming instances apart.
    """

    def __init__(self, prefix: str = "@c", avoid: Iterable[object] | None = None):
        self._prefix = prefix
        self._taken = {c.name for c in (avoid or ()) if isinstance(c, Const)}
        self._counter = itertools.count()

    def __call__(self) -> Const:
        while True:
            name = f"{self._prefix}{next(self._counter)}"
            if name not in self._taken:
                self._taken.add(name)
                return Const(name)

    def take(self, count: int) -> list[Const]:
        return [self() for _ in range(count)]
