"""Batch execution kept as a stand-alone API.

:class:`ShardedEngine` runs a batch of queries that share a window as one
plan on one in-process :class:`~repro.engine.QueryEngine` over the whole
MOD, so its answers are the single engine's answers by construction.
"""

from .sharded import (
    BACKENDS,
    ShardInfo,
    ShardedBatchResult,
    ShardedEngine,
    ShardedQueryAnswer,
)

__all__ = [
    "BACKENDS",
    "ShardInfo",
    "ShardedBatchResult",
    "ShardedEngine",
    "ShardedQueryAnswer",
]
