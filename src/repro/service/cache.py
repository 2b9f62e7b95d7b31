"""Revision-keyed result cache of the :class:`~repro.service.QueryService`.

The engine layer already memoizes *prepared contexts*; this cache sits one
level higher and memoizes *final answers*, keyed on the request statement
(a frozen :class:`~repro.query_language.planner.PlannedStatement`) and the
MOD revision the answer was computed at.  The revision is the only
staleness rule: an entry is only served while the store is at the revision
it was computed at, so any add/remove/replace invalidates every affected
answer implicitly (no scanning, no subscriptions: the key just stops
matching).  Capacity is enforced LRU-style.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..query_language.planner import PlannedStatement, StatementAnswer


@dataclass(frozen=True, slots=True)
class ResultCacheInfo:
    """Counters of the result cache."""

    hits: int
    misses: int
    invalidations: int
    evictions: int
    size: int

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """LRU result cache with revision-keyed invalidation.

    Counters are registry-backed (``repro_service_result_cache_*``);
    :meth:`info` stays the exact per-instance view because the default
    registry is private to the cache instance.

    Args:
        capacity: maximum number of cached answers (LRU eviction beyond).
        registry: the :class:`~repro.obs.MetricsRegistry` the counters
            land in; a private registry when ``None``.
    """

    def __init__(
        self,
        capacity: int = 1024,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        #: statement -> (revision, answer); one live entry per
        #: statement, so a newer revision displaces the stale answer.
        self._entries: "OrderedDict[PlannedStatement, Tuple[int, StatementAnswer]]"
        self._entries = OrderedDict()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._hits = self.registry.counter(
            "repro_service_result_cache_hits_total", "Result-cache hits"
        )
        self._misses = self.registry.counter(
            "repro_service_result_cache_misses_total", "Result-cache misses"
        )
        self._invalidations = self.registry.counter(
            "repro_service_result_cache_invalidations_total",
            "Entries dropped by revision mismatch",
        )
        self._evictions = self.registry.counter(
            "repro_service_result_cache_evictions_total",
            "Entries dropped by LRU capacity",
        )

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, statement: PlannedStatement, revision: int) -> Optional[StatementAnswer]:
        """The cached answer for ``statement`` at ``revision``, or ``None``.

        A hit requires the entry's revision to match exactly; a mismatch
        drops the stale entry.
        """
        entry = self._entries.get(statement)
        if entry is None:
            self._misses.inc()
            return None
        cached_revision, answer = entry
        if cached_revision != revision:
            del self._entries[statement]
            self._invalidations.inc()
            self._misses.inc()
            return None
        self._entries.move_to_end(statement)
        self._hits.inc()
        return answer

    def put(self, statement: PlannedStatement, revision: int, answer: StatementAnswer) -> None:
        """Store an answer computed at ``revision``; evicts LRU beyond capacity."""
        if statement in self._entries:
            del self._entries[statement]
        self._entries[statement] = (revision, answer)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._evictions.inc()

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()

    def info(self) -> ResultCacheInfo:
        """Current counters and size (a thin view over the registry)."""
        return ResultCacheInfo(
            hits=int(self._hits.value),
            misses=int(self._misses.value),
            invalidations=int(self._invalidations.value),
            evictions=int(self._evictions.value),
            size=len(self._entries),
        )
