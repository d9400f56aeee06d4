"""Relational instances (the paper's central semantic objects).

An instance ``I`` over a schema ``S = {R1, ..., Rn}`` is a tuple
``(dom(I), R1^I, ..., Rn^I)`` where ``dom(I)`` is a set of domain elements
and ``Ri^I ⊆ dom(I)^{ar(Ri)}``.

Two containment relations matter and are easy to confuse:

* ``J ⊆ I``  — :meth:`Instance.is_subset_of` — ``facts(J) ⊆ facts(I)``.
* ``J ≤ I``  — :meth:`Instance.is_subinstance_of` — ``dom(J) ⊆ dom(I)``
  and ``R^J`` is the *restriction* of ``R^I`` to ``dom(J)`` for every R.

``J ≤ I`` implies ``J ⊆ I`` but not conversely (Section 2 of the paper).

Instances are immutable; all "mutators" return new instances.  The chase
uses its own mutable working state and converts at the end.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from typing import TYPE_CHECKING

from ..lang.atoms import Fact
from ..lang.parser import parse_facts
from ..lang.schema import Relation, Schema, SchemaError
from ..lang.terms import element_sort_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .streaming import StreamSource

__all__ = ["Instance", "InstanceError"]


class InstanceError(ValueError):
    """Raised for ill-formed instances or mismatched operations."""


class Instance:
    """An immutable relational instance over a fixed schema."""

    __slots__ = ("_schema", "_domain", "_relations", "_facts_cache", "_hash",
                 "_index", "_sorted_extents")

    def __init__(
        self,
        schema: Schema,
        domain: Iterable[object],
        relations: Mapping[Relation, Iterable[tuple]] | None = None,
    ):
        self._schema = schema
        self._domain = frozenset(domain)
        rels: dict[Relation, frozenset] = {}
        provided = dict(relations or {})
        for key in provided:
            if key not in schema:
                raise InstanceError(f"relation {key} not in schema {schema}")
        for rel in schema:
            tuples = frozenset(tuple(t) for t in provided.get(rel, ()))
            for tup in tuples:
                if len(tup) != rel.arity:
                    raise InstanceError(
                        f"tuple {tup!r} has wrong arity for {rel}"
                    )
                for elem in tup:
                    if elem not in self._domain:
                        raise InstanceError(
                            f"element {elem!r} of {rel.name}{tup!r} "
                            f"is not in the domain"
                        )
            rels[rel] = tuples
        self._relations = rels
        self._facts_cache: frozenset[Fact] | None = None
        self._hash: int | None = None
        self._index: dict[Relation, dict[tuple[int, object], tuple]] | None = None
        self._sorted_extents: dict[Relation, tuple] | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def _trusted(
        cls,
        schema: Schema,
        domain: frozenset,
        relations: dict,
    ) -> "Instance":
        """Internal fast path: build without validation.

        ``relations`` must map every relation of ``schema`` to a
        frozenset of well-formed tuples over ``domain``.  Used by the
        operations that preserve these invariants by construction
        (restrictions, renamings, products).
        """
        instance = cls.__new__(cls)
        instance._schema = schema
        instance._domain = domain
        instance._relations = relations
        instance._facts_cache = None
        instance._hash = None
        instance._index = None
        instance._sorted_extents = None
        return instance

    @classmethod
    def empty(cls, schema: Schema) -> "Instance":
        """The empty instance (empty domain, empty relations)."""
        return cls(schema, ())

    @classmethod
    def from_facts(
        cls,
        schema: Schema,
        facts: Iterable[Fact],
        extra_domain: Iterable[object] = (),
    ) -> "Instance":
        """Build an instance whose domain is the active domain of ``facts``
        plus ``extra_domain``."""
        facts = list(facts)
        domain = set(extra_domain)
        rels: dict[Relation, set[tuple]] = {}
        for fact in facts:
            if fact.relation not in schema:
                raise InstanceError(f"{fact.relation} not in schema {schema}")
            rels.setdefault(fact.relation, set()).add(fact.elements)
            domain.update(fact.elements)
        return cls(schema, domain, rels)

    @classmethod
    def from_stream(
        cls,
        source: "StreamSource",
        *,
        schema: Schema | None = None,
        batch_size: int | None = None,
    ) -> "Instance":
        """Build an instance by one batched pass over a fact stream.

        ``source`` is a fact-stream file path, a
        :class:`~repro.instances.streaming.FactStream`, or any iterable
        of ``(relation, elements)`` rows (then ``schema=`` is
        required).  Equal to :meth:`from_facts` over the same rows, but
        never materializes the stream: rows are ingested in batches of
        ``batch_size`` with per-batch ``ingest.*`` telemetry (see
        :mod:`repro.instances.streaming`).
        """
        from .streaming import DEFAULT_BATCH_ROWS, instance_from_stream

        return instance_from_stream(
            source,
            schema=schema,
            batch_size=(
                DEFAULT_BATCH_ROWS if batch_size is None else batch_size
            ),
        )

    @classmethod
    def parse(cls, text: str, schema: Schema | None = None) -> "Instance":
        """Parse ``"R(a, b). S(b)"``; the schema is inferred if omitted."""
        facts = parse_facts(text, schema)
        if schema is None:
            schema = Schema(fact.relation for fact in facts)
        return cls.from_facts(schema, facts)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def domain(self) -> frozenset:
        return self._domain

    @property
    def active_domain(self) -> frozenset:
        """Elements occurring in at least one fact (``adom(I)``)."""
        active = set()
        for tuples in self._relations.values():
            for tup in tuples:
                active.update(tup)
        return frozenset(active)

    def tuples(self, relation: Relation | str) -> frozenset:
        if isinstance(relation, str):
            relation = self._schema.relation(relation)
        try:
            return self._relations[relation]
        except KeyError:
            raise InstanceError(f"{relation} not in schema") from None

    def tuples_with(
        self, relation: Relation | str, position: int, element: object
    ) -> tuple:
        """Facts of ``relation`` whose ``position``-th argument is
        ``element``.

        Backed by a lazily built per-relation, per-position hash index,
        so a probe is a dict lookup rather than a scan of the whole
        extent.  The index is built once per relation on first use and
        shared for the lifetime of the (immutable) instance.  Buckets
        are stored pre-sorted by
        :func:`repro.lang.terms.element_sort_key`, so the compiled join
        plans (:mod:`repro.homomorphisms.plans`) enumerate candidates
        in the canonical deterministic order without sorting per node.
        """
        if isinstance(relation, str):
            relation = self._schema.relation(relation)
        if self._index is None:
            self._index = {}
        by_pos = self._index.get(relation)
        if by_pos is None:
            buckets: dict[tuple[int, object], list] = {}
            try:
                tuples = self._relations[relation]
            except KeyError:
                raise InstanceError(f"{relation} not in schema") from None
            for tup in tuples:
                for pos, elem in enumerate(tup):
                    buckets.setdefault((pos, elem), []).append(tup)
            by_pos = {
                key: tuple(sorted(val, key=element_sort_key))
                for key, val in buckets.items()
            }
            self._index[relation] = by_pos
        return by_pos.get((position, element), ())

    # The index buckets are already sorted; expose them under the name
    # the compiled-plan executor probes for.
    sorted_tuples_with = tuples_with

    def sorted_tuples(self, relation: Relation | str) -> tuple:
        """The relation's extent as a tuple sorted by
        :func:`repro.lang.terms.element_sort_key` (cached)."""
        if isinstance(relation, str):
            relation = self._schema.relation(relation)
        if self._sorted_extents is None:
            self._sorted_extents = {}
        cached = self._sorted_extents.get(relation)
        if cached is None:
            cached = tuple(
                sorted(self.tuples(relation), key=element_sort_key)
            )
            self._sorted_extents[relation] = cached
        return cached

    def facts(self) -> frozenset[Fact]:
        """``facts(I)`` as a frozen set of :class:`Fact`."""
        if self._facts_cache is None:
            self._facts_cache = frozenset(
                Fact(rel, tup)
                for rel, tuples in self._relations.items()
                for tup in tuples
            )
        return self._facts_cache

    def fact_count(self) -> int:
        return sum(len(tuples) for tuples in self._relations.values())

    def has_fact(self, fact: Fact) -> bool:
        tuples = self._relations.get(fact.relation)
        return tuples is not None and fact.elements in tuples

    def is_empty(self) -> bool:
        return self.fact_count() == 0

    def __iter__(self) -> Iterator[Fact]:
        return iter(sorted(self.facts()))

    # ------------------------------------------------------------------
    # Containment
    # ------------------------------------------------------------------

    def is_subset_of(self, other: "Instance") -> bool:
        """``self ⊆ other``: fact containment."""
        self._check_same_schema(other)
        return all(
            tuples <= other._relations[rel]
            for rel, tuples in self._relations.items()
        )

    def is_subinstance_of(self, other: "Instance") -> bool:
        """``self ≤ other``: induced-substructure containment."""
        self._check_same_schema(other)
        if not self._domain <= other._domain:
            return False
        return all(
            self._relations[rel] == _restrict_tuples(other._relations[rel], self._domain)
            for rel in self._schema
        )

    def restrict(self, elements: Iterable[object]) -> "Instance":
        """The subinstance induced by ``elements`` (``I|_D``, so result ≤ I)."""
        domain = frozenset(elements)
        if not domain <= self._domain:
            raise InstanceError("restriction domain must be a subset of dom(I)")
        rels = {
            rel: _restrict_tuples(tuples, domain)
            for rel, tuples in self._relations.items()
        }
        return Instance._trusted(self._schema, domain, rels)

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------

    def add_facts(self, facts: Iterable[Fact]) -> "Instance":
        rels = {rel: set(tuples) for rel, tuples in self._relations.items()}
        domain = set(self._domain)
        for fact in facts:
            if fact.relation not in self._schema:
                raise InstanceError(f"{fact.relation} not in schema")
            rels[fact.relation].add(fact.elements)
            domain.update(fact.elements)
        return Instance(self._schema, domain, rels)

    def remove_facts(self, facts: Iterable[Fact]) -> "Instance":
        """Drop facts (domain unchanged — removal can leave dead elements)."""
        rels = {rel: set(tuples) for rel, tuples in self._relations.items()}
        for fact in facts:
            rels.get(fact.relation, set()).discard(fact.elements)
        return Instance(self._schema, self._domain, rels)

    def with_domain(self, domain: Iterable[object]) -> "Instance":
        """Same facts, different domain (must cover the active domain).

        Useful for exercising *domain independence* (Definition 3.7).
        """
        domain = frozenset(domain)
        if not self.active_domain <= domain:
            raise InstanceError("new domain must contain the active domain")
        return Instance(self._schema, domain, self._relations)

    def shrink_domain(self) -> "Instance":
        """Drop inactive domain elements (``dom := adom``)."""
        return Instance(
            self._schema, self.active_domain, self._relations
        )

    def with_schema(self, schema: Schema) -> "Instance":
        """Reinterpret over a super-schema (new relations are empty)."""
        if not self._schema <= schema:
            raise InstanceError("target schema must contain the current one")
        return Instance(schema, self._domain, self._relations)

    def project_schema(self, schema: Schema) -> "Instance":
        """Keep only the relations of a sub-schema (domain unchanged)."""
        if not schema <= self._schema:
            raise InstanceError("projection schema must be a sub-schema")
        rels = {rel: self._relations[self._schema.relation(rel.name)] for rel in schema}
        return Instance(schema, self._domain, rels)

    def rename(self, mapping: Mapping[object, object] | Callable) -> "Instance":
        """Apply an element mapping ``h`` and return the image instance.

        The mapping need not be injective: the result has domain
        ``h(dom(I))`` and facts ``h(facts(I))``.
        """
        func = mapping if callable(mapping) else (
            lambda elem: mapping.get(elem, elem)  # type: ignore[union-attr]
        )
        domain = frozenset(func(elem) for elem in self._domain)
        rels = {
            rel: frozenset(
                tuple(func(e) for e in tup) for tup in tuples
            )
            for rel, tuples in self._relations.items()
        }
        return Instance._trusted(self._schema, domain, rels)

    # ------------------------------------------------------------------
    # Shape predicates used by the locality refinements
    # ------------------------------------------------------------------

    def is_guarded(self) -> bool:
        """Guarded instance (Section 7.1): empty, or some fact covers adom."""
        active = self.active_domain
        if not active:
            return True
        return any(
            active <= set(fact.elements) for fact in self.facts()
        )

    def is_guarded_relative_to(self, elements: Iterable[object]) -> bool:
        """``F``-guarded instance (Section 8.1)."""
        required = frozenset(elements)
        if self.is_empty():
            return True
        return any(
            required <= set(fact.elements) for fact in self.facts()
        )

    # ------------------------------------------------------------------
    # Equality / hashing / display
    # ------------------------------------------------------------------

    def _check_same_schema(self, other: "Instance") -> None:
        if self._schema != other._schema:
            raise SchemaError(
                f"schema mismatch: {self._schema} vs {other._schema}"
            )

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------

    # Pickle only the semantic payload: indexes and sorted views
    # rebuild lazily on the other side.

    def __getstate__(self) -> tuple[Schema, frozenset, dict]:
        return (self._schema, self._domain, self._relations)

    def __setstate__(self, state: tuple[Schema, frozenset, dict]) -> None:
        schema, domain, relations = state
        self._schema = schema
        self._domain = domain
        self._relations = relations
        self._facts_cache = None
        self._hash = None
        self._index = None
        self._sorted_extents = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self._schema == other._schema
            and self._domain == other._domain
            and self._relations == other._relations
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    self._schema,
                    self._domain,
                    tuple(sorted(
                        (rel.name, tuples)
                        for rel, tuples in self._relations.items()
                    )),
                )
            )
        return self._hash

    def __len__(self) -> int:
        return len(self._domain)

    def __str__(self) -> str:
        facts = ". ".join(str(f) for f in sorted(self.facts()))
        dead = sorted(self._domain - self.active_domain, key=element_sort_key)
        suffix = ""
        if dead:
            suffix = " [+dom: " + ", ".join(str(e) for e in dead) + "]"
        return ("{" + facts + "}" if facts else "{}") + suffix

    def __repr__(self) -> str:
        return f"Instance<{self}>"


def _restrict_tuples(tuples: frozenset, domain: frozenset) -> frozenset:
    return frozenset(
        tup for tup in tuples if all(elem in domain for elem in tup)
    )
