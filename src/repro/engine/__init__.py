"""Batched multi-query serving on top of the paper's query machinery.

The :class:`QueryEngine` shrinks each query's candidate set with a provably
safe corridor scan of the store's box table, prepares whole batches of
:class:`~repro.core.queries.QueryContext` objects in one staged pass, and
memoizes them in an LRU cache — the seam the service, the planner, the
monitor and the sharded engine all serve through.
"""

from .answers import VARIANTS, Answer, answer_of
from .cache import CacheInfo, ContextCache, context_key
from .engine import BatchResult, PreparedQuery, QueryEngine
from .filtering import corridor_probe_bulk, filter_candidates

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
]
