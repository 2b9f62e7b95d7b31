"""Batched multi-query serving on top of the paper's query machinery.

The :class:`QueryEngine` bulk-loads a spatio-temporal index once, shrinks
each query's candidate set with a provably safe corridor probe, prepares
whole batches of :class:`~repro.core.queries.QueryContext`s (optionally on a
thread pool), and memoizes them in an LRU cache — the architectural seam the
scaling roadmap (sharding, async serving, distributed caching) builds on.
"""

from .answers import VARIANTS, Answer, answer_of
from .cache import CacheInfo, ContextCache, context_key
from .engine import BatchResult, PreparedQuery, QueryEngine
from .filtering import (
    corridor_probe_bulk,
    filter_candidates,
    trajectory_within_corridor,
)

__all__ = [
    "Answer",
    "BatchResult",
    "CacheInfo",
    "ContextCache",
    "PreparedQuery",
    "QueryEngine",
    "VARIANTS",
    "answer_of",
    "corridor_probe_bulk",
    "context_key",
    "filter_candidates",
    "trajectory_within_corridor",
]
