"""Process-level memos: one bounded LRU type and one registry.

The engine memoizes pure functions at several layers — compiled join
plans, termination certificates, dependency graphs, semantic MSA/MFA
reports, conjunction shapes, adaptive order decisions and the workload
factory's Zipf tables.  Each memo joins the
registry where it is defined, so :func:`clear_memos` cold-starts every
one of them (the benchmark harness and the test suite rely on it) and
:func:`memo_sizes` reports their occupancy.

:class:`Memo` is the thread-safe bounded LRU behind the first four.
The shape, shape-id, order and Zipf memos stay plain dicts — the shape
lookups sit on the per-search hot path — and are only registered; a
registered dict needs nothing beyond ``clear`` and ``__len__``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Generic, Hashable, Iterator, Protocol, TypeVar

from .telemetry import TELEMETRY

__all__ = ["Memo", "clear_memos", "memo_sizes", "register"]

V = TypeVar("V")


class Memo(Generic[V]):
    """A thread-safe bounded LRU.

    ``get`` returns ``None`` on a miss, so ``None`` is never a stored
    value.  Hits, misses and evictions are tracked on the object; when
    a counter name is given, each is mirrored to that telemetry counter
    so benchmark counter deltas carry it.
    """

    __slots__ = (
        "maxsize", "hits", "misses", "evictions", "_data", "_lock",
        "_hit_counter", "_miss_counter", "_eviction_counter",
    )

    def __init__(
        self,
        maxsize: int,
        *,
        hit_counter: str | None = None,
        miss_counter: str | None = None,
        eviction_counter: str | None = None,
    ) -> None:
        if maxsize <= 0:
            raise ValueError("memo maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[Hashable, V] = OrderedDict()
        self._lock = threading.Lock()
        self._hit_counter = hit_counter
        self._miss_counter = miss_counter
        self._eviction_counter = eviction_counter

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable) -> V | None:
        """The value under ``key`` (refreshed as most recent), or
        ``None`` on a miss; records the hit or miss."""
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
            else:
                self._data.move_to_end(key)
                self.hits += 1
        counter = self._miss_counter if value is None else self._hit_counter
        if counter is not None and TELEMETRY.enabled:
            TELEMETRY.count(counter)
        return value

    def put(self, key: Hashable, value: V) -> None:
        """Store ``value`` as most recent, evicting the least recent
        entries beyond ``maxsize``."""
        evicted = 0
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        counter = self._eviction_counter
        if evicted and counter is not None and TELEMETRY.enabled:
            TELEMETRY.count(counter, evicted)

    def clear(self) -> None:
        """Drop all entries and zero the statistics."""
        with self._lock:
            self._data.clear()
            self.hits = self.misses = self.evictions = 0

    @contextmanager
    def scoped(self) -> Iterator[None]:
        """Run the block against an empty table with zeroed statistics,
        then restore the table and statistics it replaced.

        Internal work such as the semantic analyses' chases runs in a
        scope, so it leaves :meth:`info` — and the counters pinned by
        benchmark baselines — as it found them."""
        with self._lock:
            saved = (self._data, self.hits, self.misses, self.evictions)
            self._data = OrderedDict()
            self.hits = self.misses = self.evictions = 0
        try:
            yield
        finally:
            with self._lock:
                self._data, self.hits, self.misses, self.evictions = saved

    def info(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._data),
                "maxsize": self.maxsize,
            }

    def __repr__(self) -> str:
        info = self.info()
        return (
            f"Memo(hits={info['hits']}, misses={info['misses']}, "
            f"evictions={info['evictions']}, size={info['size']}/"
            f"{info['maxsize']})"
        )


class _Clearable(Protocol):
    def clear(self) -> None: ...

    def __len__(self) -> int: ...


M = TypeVar("M", bound=_Clearable)

_REGISTRY: dict[str, _Clearable] = {}


def register(name: str, memo: M) -> M:
    """Enroll ``memo`` under ``name`` and return it; a name may be
    registered once."""
    if name in _REGISTRY:
        raise ValueError(f"memo {name!r} is already registered")
    _REGISTRY[name] = memo
    return memo


def clear_memos() -> None:
    """Empty every registered memo (cold-cache protocol)."""
    for memo in _REGISTRY.values():
        memo.clear()


def memo_sizes() -> dict[str, int]:
    """Each registered memo's current number of entries."""
    return {name: len(memo) for name, memo in _REGISTRY.items()}
