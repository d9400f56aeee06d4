"""The bounded LRU behind the process-level memos (:class:`repro.memo.Memo`)."""

from __future__ import annotations

from repro.memo import Memo


class TestEviction:
    def test_lru_evicts_oldest_and_counts(self):
        cache = Memo(maxsize=2)
        cache.put("a", "va")
        cache.put("b", "vb")
        value = cache.get("a")  # refresh "a": now "b" is oldest
        assert value == "va"
        cache.put("c", "vc")
        assert cache.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") == "va"
        assert cache.get("c") == "vc"
        assert cache.info() == {
            "size": 2,
            "maxsize": 2,
            "hits": 3,
            "misses": 1,
            "evictions": 1,
        }

    def test_clear_resets_statistics(self):
        cache = Memo(maxsize=2)
        cache.put("a", "va")
        cache.get("a")
        cache.get("zzz")
        cache.clear()
        assert cache.info() == {
            "size": 0,
            "maxsize": 2,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
        }
