"""Per-relation statistics: incremental accumulators and snapshots.

The chase's working state already maintains a per-position hash index
mapping ``(position, value)`` to the bucket of rows carrying that value
— exactly the structure a bound join probe consults.  The statistics
here piggyback on those buckets: when the state inserts a genuinely
new row it already touches every position's bucket, so observing the
post-insert bucket size per position is enough to maintain row counts,
distinct counts and max-bucket skew at O(arity) extra work per insert,
with no additional hash tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["RelationStats", "StatsAccumulator", "compute_stats"]


@dataclass(frozen=True)
class RelationStats:
    """An immutable snapshot of one relation's distribution.

    ``distinct[p]`` is the number of different values occurring at
    argument position ``p``; ``max_bucket[p]`` is the size of the
    largest ``(p, value)`` bucket — the worst case a bound probe at
    ``p`` can return.
    """

    rows: int
    distinct: tuple[int, ...]
    max_bucket: tuple[int, ...]

    @property
    def arity(self) -> int:
        return len(self.distinct)

    def expected_bucket(self, position: int) -> float:
        """The average bucket size at ``position`` (``rows / distinct``,
        the uniformity estimate classical optimizers use)."""
        count = self.distinct[position]
        return self.rows / count if count else 0.0

    def fingerprint(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """A power-of-two-quantized key for memoizing order decisions.

        Bit lengths change only when a statistic crosses a power of
        two, so decisions are re-derived O(log n) times as a relation
        grows instead of once per insert."""
        return (
            self.rows.bit_length(),
            tuple(count.bit_length() for count in self.distinct),
            tuple(size.bit_length() for size in self.max_bucket),
        )


class StatsAccumulator:
    """The mutable, incrementally-maintained form of
    :class:`RelationStats`.

    The chase state calls :meth:`record` once per genuinely-new row
    with the *post-insert* bucket size at every position (a size of 1
    means the value is new at that position).  :meth:`snapshot` is
    O(arity).
    """

    __slots__ = ("rows", "distinct", "max_bucket")

    def __init__(self, arity: int) -> None:
        self.rows = 0
        self.distinct = [0] * arity
        self.max_bucket = [0] * arity

    def record(self, bucket_sizes: Sequence[int]) -> None:
        """Fold one inserted row's post-insert bucket sizes in."""
        self.rows += 1
        distinct = self.distinct
        max_bucket = self.max_bucket
        for pos, size in enumerate(bucket_sizes):
            if size == 1:
                distinct[pos] += 1
            if size > max_bucket[pos]:
                max_bucket[pos] = size

    def snapshot(self) -> RelationStats:
        return RelationStats(
            self.rows, tuple(self.distinct), tuple(self.max_bucket)
        )

    def __repr__(self) -> str:
        return (
            f"StatsAccumulator(rows={self.rows}, "
            f"distinct={self.distinct}, max_bucket={self.max_bucket})"
        )


def compute_stats(
    tuples: Iterable[Sequence[object]], arity: int
) -> RelationStats:
    """The from-scratch reference computation.

    One pass with explicit per-position value counts — the oracle the
    property tests compare every incrementally-maintained accumulator
    against after arbitrary insert sequences.
    """
    rows = 0
    counts: list[dict[object, int]] = [{} for _ in range(arity)]
    for tup in tuples:
        rows += 1
        for pos, elem in enumerate(tup):
            bucket = counts[pos]
            bucket[elem] = bucket.get(elem, 0) + 1
    return RelationStats(
        rows,
        tuple(len(bucket) for bucket in counts),
        tuple(max(bucket.values(), default=0) for bucket in counts),
    )
