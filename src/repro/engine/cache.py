"""A small LRU cache for prepared :class:`~repro.core.queries.QueryContext`s.

Continuous queries are re-evaluated as dashboards refresh or new predicates
arrive for the same (query, window, band) triple; the expensive part —
difference functions plus envelope construction — is identical every time,
so the engine memoizes contexts.  Keys quantize the float window/band values
so that values differing only by representation noise hit the same slot.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

from ..core.queries import QueryContext

#: Decimal places used to quantize window and band floats into cache keys.
_KEY_DECIMALS = 9


@dataclass(frozen=True, slots=True)
class CacheInfo:
    """Hit/miss counters and occupancy of a :class:`ContextCache`."""

    hits: int
    misses: int
    size: int
    max_size: int

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def context_key(
    query_id: object, t_start: float, t_end: float, band_width: float
) -> Tuple[Hashable, float, float, float]:
    """The cache key of a prepared context."""
    return (
        query_id,
        round(float(t_start), _KEY_DECIMALS),
        round(float(t_end), _KEY_DECIMALS),
        round(float(band_width), _KEY_DECIMALS),
    )


class ContextCache:
    """LRU map from (query id, window, band width) to a prepared context."""

    def __init__(self, max_size: int = 256):
        if max_size < 1:
            raise ValueError("the cache needs room for at least one context")
        self._max_size = max_size
        self._entries: "OrderedDict[Tuple, QueryContext]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries

    def get(
        self, query_id: object, t_start: float, t_end: float, band_width: float
    ) -> Optional[QueryContext]:
        """The cached context for the key, refreshing its recency, or ``None``."""
        return self.lookup(context_key(query_id, t_start, t_end, band_width))

    def lookup(self, key: Tuple) -> Optional[QueryContext]:
        """:meth:`get` by a :func:`context_key` already made."""
        context = self._entries.get(key)
        if context is None:
            self._misses += 1
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        return context

    def put(
        self,
        query_id: object,
        t_start: float,
        t_end: float,
        band_width: float,
        context: QueryContext,
    ) -> None:
        """Store a context, evicting the least recently used entry when full."""
        key = context_key(query_id, t_start, t_end, band_width)
        self._entries[key] = context
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_size:
            self._entries.popitem(last=False)

    def items(self) -> list:
        """Snapshot of ``(key, context)`` pairs (no recency side effects)."""
        return list(self._entries.items())

    def discard(self, key: Tuple) -> bool:
        """Drop one entry by key; True when it was present."""
        return self._entries.pop(key, None) is not None

    def invalidate(self, query_id: object) -> int:
        """Drop every cached context of one query id; returns how many."""
        stale = [key for key in self._entries if key[0] == query_id]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self._hits = 0
        self._misses = 0

    def info(self) -> CacheInfo:
        """Current counters and occupancy."""
        return CacheInfo(self._hits, self._misses, len(self._entries), self._max_size)
