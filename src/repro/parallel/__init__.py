"""Parallel query execution that splits the batch, not the store.

The :class:`ShardedEngine` cuts a batch of queries into slices and evaluates
every slice against the whole MOD — on one in-process
:class:`~repro.engine.QueryEngine`, or on spawned workers that attach the
parent's shared-memory column export — so its answers are the single
engine's answers by construction.
"""

from .sharded import (
    BACKENDS,
    MP_START_METHODS,
    ShardInfo,
    ShardedBatchResult,
    ShardedEngine,
)
from .worker import (
    ShardTask,
    ShardTaskResult,
    ShardedQueryAnswer,
    answer_slice,
    run_shard_task,
)

__all__ = [
    "BACKENDS",
    "MP_START_METHODS",
    "ShardInfo",
    "ShardTask",
    "ShardTaskResult",
    "ShardedBatchResult",
    "ShardedEngine",
    "ShardedQueryAnswer",
    "answer_slice",
    "run_shard_task",
]
