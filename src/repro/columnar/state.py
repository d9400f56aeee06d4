"""Mutable chase working state backed by a :class:`ColumnarStore`.

:class:`ColumnarState` is the ``backend="columnar"`` drop-in for the
chase engine's object-level ``_State``: the same attributes
(``schema`` / ``domain`` / ``relations`` / ``epoch`` / ``log``), the
same probe interface (``tuples`` / ``tuples_with`` and the sorted
views), the same mutation protocol (``add`` / ``merge``).
The engine never branches on the backend — it just constructs a
different state class.

The object-level fact sets are kept alongside the store: ``tuples``
returns the same ``set`` objects the reference backend would, so the
interpreted matcher and the engine's bookkeeping behave identically,
while the compiled matcher discovers the store through
:meth:`columnar_kernel` and runs at ID level.  Facts are dual-written
(a set add plus an O(arity) column append).  An egd merge renames the
touched facts in the fact sets and logs their images exactly as the
reference backend does, then rebuilds the append-only store once,
re-interning the surviving elements in canonical order so value IDs
stay deterministic.
"""

from __future__ import annotations

from typing import Mapping

from ..instances.instance import Instance
from ..lang.schema import Relation, Schema
from ..lang.terms import element_sort_key
from ..stats.relation import RelationStats
from .store import ColumnarStore

__all__ = ["ColumnarState"]


class ColumnarState:
    """Chase working state whose probe hot path is a columnar store."""

    def __init__(self, instance: Instance, schema: Schema) -> None:
        self.schema = schema
        self.domain: set[object] = set(instance.domain)
        self.relations: dict[Relation, set[tuple[object, ...]]] = {
            rel: set(
                instance.tuples(rel.name)
                if rel.name in instance.schema
                else ()
            )
            for rel in schema
        }
        self.epoch = 0
        self.log = self._canonical_facts()
        self.store: ColumnarStore
        kernel = instance.columnar_kernel()
        if kernel is not None:
            # The instance already carries an interned kernel: bootstrap
            # by C-level clone (extended to the combined schema) instead
            # of re-interning every fact.  Value IDs and row order then
            # follow the kernel's build order rather than the combined
            # schema's — an unobservable difference, since every output
            # and counter depends only on element identity, bucket sizes
            # and the absolute sort keys.
            self.store = kernel.clone(self.relations)
        else:
            self._rebuild(self.log)

    def _canonical_facts(self) -> list[tuple[Relation, tuple[object, ...]]]:
        """Every fact, per relation in schema order, by element."""
        return [
            (rel, tup)
            for rel, tuples in self.relations.items()
            for tup in sorted(tuples, key=element_sort_key)
        ]

    def _rebuild(
        self, facts: list[tuple[Relation, tuple[object, ...]]]
    ) -> None:
        """Re-intern and re-append ``facts`` (:meth:`_canonical_facts`)
        into a new store, so the dense value IDs — and with them every
        sorted row view — are a pure function of the fact sets,
        independent of set-iteration order."""
        store = ColumnarStore(self.relations)
        for rel, tup in facts:
            store.append(rel, tup)
        self.store = store

    def columnar_kernel(self) -> ColumnarStore:
        """The live store — the hook the compiled search dispatches on."""
        return self.store

    # -- Instance-compatible probe interface ---------------------------

    def tuples(self, relation: Relation) -> set[tuple[object, ...]]:
        return self.relations[relation]

    def tuples_with(
        self, relation: Relation, position: int, element: object
    ) -> tuple[tuple[object, ...], ...]:
        return self.store.tuples_with(relation, position, element)

    def relation_stats(self, relation: Relation) -> RelationStats:
        """The store's incrementally maintained statistics snapshot."""
        return self.store.relation_stats(relation)

    def sorted_tuples(
        self, relation: Relation
    ) -> tuple[tuple[object, ...], ...]:
        return self.store.sorted_tuples(relation)

    def sorted_tuples_with(
        self, relation: Relation, position: int, element: object
    ) -> tuple[tuple[object, ...], ...]:
        return self.store.sorted_tuples_with(relation, position, element)

    # -- mutation ------------------------------------------------------

    def snapshot(self) -> Instance:
        return Instance(
            self.schema, self.domain, self.relations, backend="columnar"
        )

    def fact_count(self) -> int:
        return sum(len(tuples) for tuples in self.relations.values())

    def add(self, relation: Relation, tup: tuple[object, ...]) -> bool:
        self.domain.update(tup)
        tuples = self.relations[relation]
        if tup in tuples:
            return False
        tuples.add(tup)
        self.epoch += 1
        self.store.append(relation, tup)
        self.log.append((relation, tup))
        return True

    def merge(self, renaming: Mapping[object, object]) -> None:
        """Apply ``renaming`` (``{drop: keep}``) to the facts.

        The facts holding a dropped element are found through the
        store's index and renamed in the fact sets; their new images
        are logged in canonical order, as the reference backend logs
        them.  The append-only store is then rebuilt once.
        """
        self.domain.difference_update(renaming)
        self.domain.update(renaming.values())
        self.epoch += 1
        for rel, tuples in self.relations.items():
            touched = {
                tup
                for pos in range(rel.arity)
                for drop in renaming
                for tup in self.store.tuples_with(rel, pos, drop)
            }
            if not touched:
                continue
            tuples -= touched
            renamed = {
                tuple(renaming.get(elem, elem) for elem in tup)
                for tup in touched
            }
            for tup in sorted(renamed, key=element_sort_key):
                if tup not in tuples:
                    tuples.add(tup)
                    self.log.append((rel, tup))
        self._rebuild(self._canonical_facts())
