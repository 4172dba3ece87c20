"""A small counted LRU — the server's memory bound.

One instance caps the resident footprint of a long-lived ``repro
serve`` process: the warm result cache of completed Report payloads,
keyed by request fingerprint. Retained job records are bounded
separately, by ``JobManager``'s retirement deque. Interned exploration
graphs live and die with the worker processes.

``OrderedDict``-backed: get refreshes recency, put evicts the
least-recently-used entry past ``capacity``. Eviction order is pure
access order — deterministic, never hash order.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

__all__ = ["LRUCache"]


class LRUCache:
    """Bounded mapping with least-recently-used eviction."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"LRU capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Any) -> Optional[Any]:
        """The value under ``key`` (refreshed as most recent), or None."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Any, value: Any) -> None:
        """Store ``key`` → ``value``, evicting past ``capacity``."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
