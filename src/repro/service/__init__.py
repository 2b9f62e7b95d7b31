"""The async query service layer: the front door of the serving stack.

``repro.service`` fronts every execution layer built so far behind one
awaitable API: :class:`~repro.query_language.planner.PlannedStatement`
requests (any UQ1x-UQ4x operator) answered by :class:`QueryResponse`, a
bounded admission queue with backpressure, request coalescing into engine
batches, a revision-keyed result cache, a warm :class:`EnginePool` holding
the one engine every batch runs on, and an async
subscription bridge over :class:`~repro.streaming.ContinuousMonitor` delta
streams.  See ``docs/architecture.md`` for how the layers stack.
"""

from .cache import ResultCache, ResultCacheInfo
from .pool import EnginePool, GroupResult
from .requests import QueryRequest, QueryResponse
from .service import (
    ADMISSION_POLICIES,
    ExplainResult,
    QueryService,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    ServiceStats,
)
from .subscriptions import DeltaBridge, DeltaSubscription

__all__ = [
    "ADMISSION_POLICIES",
    "DeltaBridge",
    "DeltaSubscription",
    "EnginePool",
    "ExplainResult",
    "GroupResult",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "ResultCache",
    "ResultCacheInfo",
    "ServiceClosed",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceStats",
]
