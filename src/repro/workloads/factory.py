"""Deterministic million-fact scenario factory.

The existing generators in this package enumerate *small* random
instances and rule sets for property tests.  This module produces the
engine's first production-traffic axis: layered, skewed, FK-style
scenarios at 10^6–10^7 facts, streamed to disk (never materialized)
through :class:`~repro.instances.streaming.FactStreamWriter`.

A :class:`WorkloadSpec` pins everything — sizes, shape, seed — so a
spec is a *name* for a byte-exact fact stream:

* **Layered FK levels.** Level ``k`` is a binary relation
  ``Lk(child, parent)``: each level-``k`` entity references a
  level-``k+1`` key (the top level references a small pool of root
  keys), the classic fact-table → dimension → sub-dimension layering.
* **Zipf-distributed sizes.** Rows are split across levels
  proportionally to ``1/(k+1)^skew`` (level 0 is the big fact table),
  and every parent reference is drawn from a Zipf distribution over
  the parent level's keys via a memoized inverse CDF — higher ``skew``
  concentrates references on hub keys, the shape the adaptive join
  order cares about.  For a fixed seed the
  per-draw quantile is monotone in ``skew`` (same uniform variate,
  stochastically smaller index), which the factory's property tests
  assert.
* **Injected violations.** With probability ``violation_rate`` a row
  gains a *second* parent, violating the per-level key FD that
  :func:`constraints_of` states as an egd — chasing with those egds
  must fail with ``StopReason.EGD_FAILURE`` (both parents are
  constants), giving large-scale constraint checking something real
  to find.

:func:`dependencies_of` supplies the join workload: full tgds
``Lk(x, y), Lk+1(y, z) -> Ak(x, z)`` rolling every level up one step.
Full tgds chase to a unique least fixpoint, so streamed, chunked and
in-memory runs must all land on the identical instance — that is what
lets the ``chase-stream`` bench family and the streaming differential
axis assert equality at scale.

Determinism contract: every derived quantity (level sizes, key pools,
the row stream) is a pure function of the spec.  ``generate_rows`` uses
one ``random.Random(seed)`` stream with a fixed per-row draw pattern
(one variate for the parent, one for the violation coin), so two specs
differing only in ``skew`` consume the stream identically — and
identical specs produce byte-identical fact streams.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Iterator

from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..instances.instance import Instance
from ..instances.streaming import (
    DEFAULT_BATCH_ROWS,
    FactStreamWriter,
    Row,
)
from ..lang.parser import parse_dependency, parse_tgds
from ..lang.schema import Relation, Schema
from ..lang.terms import Const
from ..memo import register

__all__ = [
    "WorkloadSpec",
    "constraints_of",
    "dependencies_of",
    "generate_rows",
    "level_sizes",
    "materialize",
    "schema_of",
    "write_workload",
]

# Parent keys per level as a fraction of the level's rows: every key
# pool is rows/4 wide (floor 2), so buckets average 4 references before
# skew concentrates them further.
_KEY_DIVISOR = 4

# Memoized Zipf inverse-CDF tables keyed by (pool_size, skew).  Specs
# reuse pool shapes heavily (every row of a level draws from the same
# table), and the bench harness clears this through
# repro.memo.clear_memos so repeats stay cold.
_ZIPF_MEMO: dict[tuple[int, float], list[float]] = register("zipf", {})


def _zipf_cdf(size: int, skew: float) -> list[float]:
    """Cumulative (unnormalized) Zipf weights over ``size`` ranks."""
    table = _ZIPF_MEMO.get((size, skew))
    if table is None:
        table = []
        total = 0.0
        for rank in range(size):
            total += 1.0 / (rank + 1) ** skew
            table.append(total)
        _ZIPF_MEMO[size, skew] = table
    return table


def _zipf_draw(rng: Random, table: list[float]) -> int:
    """One inverse-CDF draw: the rank whose cumulative bucket holds
    ``u * total``.  For a fixed variate the rank is monotone
    non-increasing in ``skew`` (heavier skew → earlier buckets grow)."""
    return bisect_left(table, rng.random() * table[-1])


@dataclass(frozen=True)
class WorkloadSpec:
    """A deterministic scenario: the spec *is* the workload's identity.

    ``facts`` counts base rows; injected violations add ~``facts *
    violation_rate`` more.  ``levels`` ≥ 2 so the join rules have a
    level pair to roll up.
    """

    name: str = "workload"
    seed: int = 0
    facts: int = 10_000
    levels: int = 3
    skew: float = 1.0
    violation_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.facts < 1:
            raise ValueError(f"facts must be >= 1, got {self.facts}")
        if self.levels < 2:
            raise ValueError(f"levels must be >= 2, got {self.levels}")
        if self.skew < 0:
            raise ValueError(f"skew must be >= 0, got {self.skew}")
        if not 0.0 <= self.violation_rate <= 1.0:
            raise ValueError(
                f"violation_rate must be in [0, 1], "
                f"got {self.violation_rate}"
            )


def level_sizes(spec: WorkloadSpec) -> tuple[int, ...]:
    """Base rows per level: shares ``∝ 1/(k+1)^skew``, floor 1, with
    the rounding remainder going to level 0 (the fact table)."""
    weights = [1.0 / (k + 1) ** spec.skew for k in range(spec.levels)]
    total = sum(weights)
    sizes = [
        max(1, int(spec.facts * weight / total)) for weight in weights
    ]
    sizes[0] += spec.facts - sum(sizes)
    if sizes[0] < 1:
        # Tiny fact budgets: give every level its floor of one row.
        sizes[0] = 1
    return tuple(sizes)


def schema_of(spec: WorkloadSpec) -> Schema:
    """``L0..L{levels-1}`` (the layered FK relations) plus
    ``A0..A{levels-2}`` (the rollup targets of the join rules)."""
    relations = [Relation(f"L{k}", 2) for k in range(spec.levels)]
    relations += [Relation(f"A{k}", 2) for k in range(spec.levels - 1)]
    return Schema(relations)


def _parent_pool(spec: WorkloadSpec, level: int, sizes: tuple[int, ...]) -> int:
    """How many keys a level-``level`` row can reference.

    Inner levels reference the next level's child keys (one per row);
    the top level references a small root pool.
    """
    if level + 1 < spec.levels:
        return sizes[level + 1]
    return max(2, sizes[level] // _KEY_DIVISOR)


def generate_rows(spec: WorkloadSpec) -> Iterator[Row]:
    """The spec's fact stream, lazily: ``Lk(n{k}_{i}, parent)`` rows in
    level order, with violation rows (a second parent for the same
    child) interleaved right after the row they corrupt."""
    sizes = level_sizes(spec)
    rng = Random(spec.seed)
    for level in range(spec.levels):
        relation = Relation(f"L{level}", 2)
        pool = _parent_pool(spec, level, sizes)
        table = _zipf_cdf(pool, spec.skew)
        parent_name = (
            f"n{level + 1}_" if level + 1 < spec.levels else "root_"
        )
        for i in range(sizes[level]):
            child = Const(f"n{level}_{i}")
            parent = _zipf_draw(rng, table)
            yield (relation, (child, Const(f"{parent_name}{parent}")))
            if rng.random() < spec.violation_rate:
                other = (parent + 1) % pool
                yield (
                    relation,
                    (child, Const(f"{parent_name}{other}")),
                )


def dependencies_of(spec: WorkloadSpec) -> list[TGD]:
    """The rollup join rules: ``Lk(x, y), Lk+1(y, z) -> Ak(x, z)``.

    Full tgds (no existentials), non-recursive: the chase reaches the
    unique least fixpoint in two rounds regardless of strategy or
    chunking — the bit-identity anchor for every
    streaming/bounded-memory differential.
    """
    schema = schema_of(spec)
    text = "\n".join(
        f"L{k}(x, y), L{k + 1}(y, z) -> A{k}(x, z)"
        for k in range(spec.levels - 1)
    )
    return list(parse_tgds(text, schema))


def constraints_of(spec: WorkloadSpec) -> list[EGD]:
    """Per-level key FDs: ``Lk(x, y), Lk(x, z) -> y = z``.

    Injected violations bind ``y``/``z`` to two distinct *constants*,
    so a chase carrying these egds fails hard
    (``StopReason.EGD_FAILURE``) instead of repairing by null merge.
    """
    egds = []
    for k in range(spec.levels):
        dep = parse_dependency(f"L{k}(x, y), L{k}(x, z) -> y = z")
        assert isinstance(dep, EGD)
        egds.append(dep)
    return egds


def write_workload(
    spec: WorkloadSpec,
    path: str | Path,
    *,
    batch_size: int = DEFAULT_BATCH_ROWS,
) -> int:
    """Stream the spec's facts to ``path`` (fact-stream v1); returns
    the number of rows written.  Peak memory is one writer batch —
    independent of ``spec.facts``."""
    schema = schema_of(spec)
    with FactStreamWriter(path, schema, batch_size=batch_size) as writer:
        for relation, elements in generate_rows(spec):
            writer.write(relation, elements)
        return writer.rows_written


def materialize(
    spec: WorkloadSpec,
    *,
    batch_size: int = DEFAULT_BATCH_ROWS,
) -> Instance:
    """The spec's instance via the streaming ingestion path (no disk
    round-trip): generator → batched ingest → instance."""
    return Instance.from_stream(
        generate_rows(spec),
        schema=schema_of(spec),
        batch_size=batch_size,
    )
