"""The chase's working fact store.

:class:`_State` holds the facts of a running chase with a positional
index the homomorphism search probes directly, and the log of facts
added that semi-naive sweeps read their deltas from.  It offers two
views: :meth:`_State.live`, the unsorted probe interface for the
engine's full sweeps, and :class:`_StateView`, the read-only view a
:class:`~repro.chase.engine.ChaseRun` exposes between rounds.  The
chase loop itself is in :mod:`repro.chase.engine`.
"""

from __future__ import annotations

from typing import Mapping

from ..instances.instance import Instance
from ..lang.schema import Relation, Schema
from ..lang.terms import element_sort_key


class _State:
    """Mutable chase working state with an incremental positional index.

    Exposes the same probe interface as :class:`Instance`
    (``tuples`` / ``tuples_with``), so the homomorphism search runs
    directly against the live state — no snapshot copies on the hot
    path.

    The index holds one ``{element: bucket}`` dict per relation and
    position, built on the first ``tuples_with`` probe of that position;
    ``add`` maintains only the positions already built, and ``merge``
    builds the ones it needs.  A chase whose plans never probe a
    position never pays for indexing it.

    Semi-naive bookkeeping: every genuinely new fact is appended to
    ``log``; per-dependency cursors into the log define the delta each
    dependency still has to see.  The facts the state starts with are
    not logged: a dependency's first sweep enumerates every match, and
    its cursor starts after it.  An egd merge removes the facts that
    hold a dropped element and appends their renamed images to the log,
    so deltas survive merges; the delta readers skip logged facts that a
    merge has since removed.  The log's order never reaches the result:
    a sweep sorts the triggers it finds before firing any of them.

    Two enumeration orders: the state itself offers the sorted views
    (``sorted_tuples`` / ``sorted_tuples_with``), so a probe that stops
    at its first match — an existential head's activity check, a denial
    check, any ``find_extension`` — walks the canonical stream and its
    counters do not depend on the hash seed.  :meth:`live` is the view
    for the engine's full sweeps, which enumerate every match and then
    put them in canonical order themselves: it has no sorted views, so
    the join executor iterates the live sets and buckets as they are.

    ``add`` and ``merge`` keep every tuple at its relation's arity and
    every element in ``domain``, so :meth:`snapshot` builds the result
    without re-validating it.
    """

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
        self.log: list[tuple[Relation, tuple[object, ...]]] = []
        self._index: dict[
            Relation, list[dict[object, set[tuple[object, ...]]] | None]
        ] = {rel: [None] * rel.arity for rel in schema}
        self._sorted: dict[object, tuple[int, tuple[tuple[object, ...], ...]]] = {}

    def _position(
        self, relation: Relation, position: int
    ) -> dict[object, set[tuple[object, ...]]]:
        """The index of one relation position, built on first use."""
        buckets = self._index[relation][position]
        if buckets is None:
            buckets = {}
            for tup in self.relations[relation]:
                bucket = buckets.get(tup[position])
                if bucket is None:
                    buckets[tup[position]] = {tup}
                else:
                    bucket.add(tup)
            self._index[relation][position] = buckets
        return buckets

    # -- Instance-compatible probe interface ---------------------------

    def tuples(self, relation: Relation) -> set:
        return self.relations[relation]

    def tuples_with(
        self, relation: Relation, position: int, element: object
    ) -> set:
        buckets = self._index[relation][position]
        if buckets is None:
            buckets = self._position(relation, position)
        bucket = buckets.get(element)
        return bucket if bucket is not None else _EMPTY_SET

    # -- sorted views for the compiled join plans ----------------------
    #
    # The compiled search path enumerates candidates in the canonical
    # element_sort_key order.  Sorting a live set per recursion node
    # would defeat the plan; instead a sorted copy of each consulted
    # bucket is cached and invalidated by the mutation epoch, so
    # enumeration between mutations sorts each bucket at most once.

    def sorted_tuples(
        self, relation: Relation
    ) -> tuple[tuple[object, ...], ...]:
        entry = self._sorted.get(relation)
        if entry is None or entry[0] != self.epoch:
            data = tuple(
                sorted(self.relations[relation], key=element_sort_key)
            )
            self._sorted[relation] = (self.epoch, data)
            return data
        return entry[1]

    def sorted_tuples_with(
        self, relation: Relation, position: int, element: object
    ) -> tuple[tuple[object, ...], ...]:
        key = (relation, position, element)
        entry = self._sorted.get(key)
        if entry is None or entry[0] != self.epoch:
            data = tuple(
                sorted(
                    self.tuples_with(relation, position, element),
                    key=element_sort_key,
                )
            )
            self._sorted[key] = (self.epoch, data)
            return data
        return entry[1]

    def live(self) -> "_LiveSweep":
        """The unsorted view for a full sweep (see the class docstring).

        A new view per call: the state holds no reference to it, so no
        reference cycle keeps the state alive."""
        return _LiveSweep(self)

    # -- mutation ------------------------------------------------------

    def snapshot(self) -> Instance:
        return Instance._trusted(
            self.schema,
            frozenset(self.domain),
            {rel: frozenset(tuples) for rel, tuples in self.relations.items()},
        )

    def fact_count(self) -> int:
        return sum(len(tuples) for tuples in self.relations.values())

    def add(self, relation: Relation, tup: tuple) -> bool:
        tuples = self.relations[relation]
        size = len(tuples)
        tuples.add(tup)
        if len(tuples) == size:
            return False  # already present, its elements in the domain
        self.domain.update(tup)
        self.epoch += 1
        index = self._index[relation]
        for buckets, elem in zip(index, tup):
            if buckets is not None:
                bucket = buckets.get(elem)
                if bucket is None:
                    buckets[elem] = {tup}
                else:
                    bucket.add(tup)
        self.log.append((relation, tup))
        return True

    def merge(self, renaming: Mapping[object, object]) -> None:
        """Apply ``renaming`` (``{drop: keep}``) to the facts.

        Only the facts holding a dropped element are touched, found
        through the positional index (built at every position here):
        each leaves its relation and its buckets, and its renamed image
        is added (and logged, in canonical order) unless already
        present.
        """
        self.domain.difference_update(renaming)
        self.domain.update(renaming.values())
        self.epoch += 1
        for rel, tuples in self.relations.items():
            index = [self._position(rel, pos) for pos in range(rel.arity)]
            touched = {
                tup
                for buckets in index
                for drop in renaming
                for tup in buckets.get(drop, ())
            }
            if not touched:
                continue
            tuples -= touched
            for tup in touched:
                for buckets, elem in zip(index, tup):
                    bucket = buckets[elem]
                    bucket.discard(tup)
                    if not bucket:
                        del buckets[elem]
            renamed = {
                tuple(renaming.get(elem, elem) for elem in tup)
                for tup in touched
            }
            for tup in sorted(renamed, key=element_sort_key):
                self.add(rel, tup)


class _LiveSweep:
    """A :class:`_State`'s probe interface without its sorted views.

    The join executor enumerates a target without sorted views in the
    target's own iteration order, so a sweep through this view pays for
    no bucket sorting.  Only full sweeps whose output the engine puts
    in canonical order afterwards may use it: trigger enumeration
    (sorted by binding) and egd repair passes (folded by union-find).
    """

    __slots__ = ("tuples", "tuples_with")

    def __init__(self, state: _State) -> None:
        self.tuples = state.tuples
        self.tuples_with = state.tuples_with


_EMPTY_SET: frozenset = frozenset()




class _StateView:
    """A read-only view of a run's live :class:`_State`: its schema and
    its probe interface, sorted views included, but no way to add or
    merge facts.  The homomorphism search runs on it as on the state."""

    __slots__ = (
        "schema", "tuples", "tuples_with", "sorted_tuples",
        "sorted_tuples_with",
    )

    def __init__(self, state: _State) -> None:
        self.schema = state.schema
        self.tuples = state.tuples
        self.tuples_with = state.tuples_with
        self.sorted_tuples = state.sorted_tuples
        self.sorted_tuples_with = state.sorted_tuples_with
