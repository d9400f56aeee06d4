"""Distribution metrics: fixed log-scale histograms.

A :class:`Histogram` records a stream of non-negative values —
per-round trigger counts, index-probe fan-out, entailment-call
latencies — into a fixed set of base-2
geometric buckets.  The bucket layout never changes, which gives the
three properties the telemetry layer needs:

* **O(1), allocation-free recording** — one ``math.frexp`` call and a
  list-index increment per observation (plus the singleton's lock);
* **exact, associative merging** — histograms merge by adding bucket
  counts (integers; there is no rebinning), so ``repro stats`` can
  fold the snapshots of many runs into one distribution;
* **stable serialization** — a bucket is identified by its base-2
  exponent, so snapshots written today compare against snapshots
  written by any future run (the ``BENCH_*.json`` trajectory contract).

Bucket ``e`` holds values in ``[2**(e-1), 2**e)``; exponents are
clamped to ``[_EXP_LO, _EXP_HI]`` and a dedicated bucket catches
zero/negative values.  The range covers ~1µs latencies up to ~10^9
counts.  Quantile estimates return the *upper edge* of the bucket
containing the requested rank — deterministic, and never an
interpolation artifact.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping

__all__ = ["Histogram"]

_EXP_LO = -21  # 2**-21 ≈ 0.48µs: finer buckets are measurement noise
_EXP_HI = 31   # 2**31 ≈ 2.1e9: counts beyond this clamp to the top
_ZERO_BUCKET = 0  # values <= 0 (e.g. an empty round) land here
_BUCKETS = _EXP_HI - _EXP_LO + 2  # zero bucket + one per exponent


def _bucket_index(value: float) -> int:
    if value <= 0:
        return _ZERO_BUCKET
    # frexp(v) = (m, e) with v = m * 2**e and 0.5 <= m < 1, so
    # v ∈ [2**(e-1), 2**e): e is the bucket exponent directly.
    exponent = math.frexp(value)[1]
    if exponent < _EXP_LO:
        exponent = _EXP_LO
    elif exponent > _EXP_HI:
        exponent = _EXP_HI
    return exponent - _EXP_LO + 1


def _bucket_upper_edge(index: int) -> float:
    if index == _ZERO_BUCKET:
        return 0.0
    return 2.0 ** (index - 1 + _EXP_LO)


class Histogram:
    """One named distribution: fixed log2 buckets plus count/sum/min/max."""

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.counts: list[int] = [0] * _BUCKETS
        self.count = 0
        self.sum: float = 0
        self.min: float | None = None
        self.max: float | None = None

    # -- recording ----------------------------------------------------

    def observe(self, value: float) -> None:
        self.counts[_bucket_index(value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    # -- combination --------------------------------------------------

    def copy(self) -> "Histogram":
        dup = Histogram()
        dup.counts = list(self.counts)
        dup.count = self.count
        dup.sum = self.sum
        dup.min = self.min
        dup.max = self.max
        return dup

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (exact: integer bucket
        adds; min/max widen; sums add)."""
        for index, count in enumerate(other.counts):
            if count:
                self.counts[index] += count
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    # -- summaries ----------------------------------------------------

    def quantile(self, q: float) -> float:
        """The upper edge of the bucket containing the ``q``-quantile
        observation (0 for an empty histogram)."""
        if self.count == 0:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return _bucket_upper_edge(index)
        return _bucket_upper_edge(_BUCKETS - 1)  # pragma: no cover

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def nonzero_buckets(self) -> Iterator[tuple[int, int]]:
        """``(exponent, count)`` pairs for the occupied buckets; the
        zero bucket is reported with the sentinel exponent ``"zero"``
        at serialization time (see :meth:`to_dict`)."""
        for index, count in enumerate(self.counts):
            if count:
                yield index, count

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """A JSON-stable snapshot.  Bucket keys are the base-2 exponent
        of the bucket's upper edge (or ``"zero"``), so files written by
        different runs and machines are directly comparable."""
        buckets: dict[str, int] = {}
        for index, count in self.nonzero_buckets():
            key = "zero" if index == _ZERO_BUCKET else str(index - 1 + _EXP_LO)
            buckets[key] = count
        # sum/min/max are floats in the file even when every observation
        # was an int, so a round-tripped snapshot serializes identically.
        return {
            "count": self.count,
            "sum": float(self.sum),
            "min": None if self.min is None else float(self.min),
            "max": None if self.max is None else float(self.max),
            "buckets": buckets,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Histogram":
        hist = cls()
        buckets = data.get("buckets", {})
        if not isinstance(buckets, Mapping):
            raise ValueError("histogram 'buckets' must be a mapping")
        for key, count in buckets.items():
            if key == "zero":
                index = _ZERO_BUCKET
            else:
                index = int(key) - _EXP_LO + 1
                if not 1 <= index < _BUCKETS:
                    raise ValueError(f"bucket exponent {key} out of range")
            hist.counts[index] = int(count)  # type: ignore[call-overload]
        hist.count = int(data.get("count", 0))  # type: ignore[arg-type]
        hist.sum = float(data.get("sum", 0) or 0)  # type: ignore[arg-type]
        raw_min = data.get("min")
        raw_max = data.get("max")
        hist.min = None if raw_min is None else float(raw_min)  # type: ignore[arg-type]
        hist.max = None if raw_max is None else float(raw_max)  # type: ignore[arg-type]
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.counts == other.counts
            and self.count == other.count
            and self.min == other.min
            and self.max == other.max
        )

    def __hash__(self) -> int:  # pragma: no cover - not hashed in practice
        return hash((tuple(self.counts), self.count))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram(count={self.count}, p50={self.quantile(0.5):g}, "
            f"p99={self.quantile(0.99):g}, max={self.max})"
        )

