"""The serve layer's counted LRU."""

import pytest

from repro.serve.lru import LRUCache


class TestLRUCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_get_put_and_counters(self):
        cache = LRUCache(2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh: "b" is now the oldest
        cache.put("c", 3)
        assert cache.evictions == 1
        assert len(cache) == 2
        assert (cache.get("a"), cache.get("b"), cache.get("c")) == (1, None, 3)

    def test_eviction_order_is_deterministic(self):
        cache = LRUCache(3)
        for key in "abcdef":
            cache.put(key, key)
        assert cache.evictions == 3
        assert [cache.get(key) for key in "abcdef"] == [
            None, None, None, "d", "e", "f",
        ]
