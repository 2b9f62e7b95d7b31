"""The stand-alone batch API: an :class:`~repro.service.EnginePool` with
a batch-shaped result.

:class:`ShardedEngine` answers a batch of UQ3x queries that share a window
with the pool's ``answer_group`` adapter over ``execute``: one
:class:`~repro.query_language.planner.QueryPlan` on the pool's lazily built
:class:`~repro.engine.QueryEngine` over the **whole** store.  Every answer
is therefore ``==`` to :meth:`QueryEngine.answer` by construction, and
nothing is partitioned, so nothing can escape: ``fallback_ratio`` is
constantly 0.

Every ``backend`` label runs this same path.  There is no pool of threads
or processes: two threads over one engine measured slower than one (the
kernels hold the GIL at these sizes), and worker processes cost more per
cold query than the engine they wrapped on every end-to-end workload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.answers import Answer
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import trace_span
from ..service.pool import EnginePool
from ..trajectories.mod import MovingObjectsDatabase

BACKENDS = ("process", "thread", "serial")


@dataclass(frozen=True, slots=True)
class ShardInfo:
    """One slice slot: every slot evaluates against the whole store."""

    shard: int
    members: int


@dataclass(frozen=True, slots=True)
class ShardedQueryAnswer:
    """One query's result.

    Attributes:
        query_id: the query trajectory id.
        answer: the exact UQ3x answer (member -> non-zero intervals).
        candidate_count: candidates that entered envelope construction.
    """

    query_id: object
    answer: Answer
    candidate_count: int


@dataclass
class ShardedBatchResult:
    """Outcome of one batch evaluation."""

    results: List[ShardedQueryAnswer]
    total_seconds: float

    #: A constant (not a field): nothing is partitioned, so no query can
    #: fall outside its partition and need re-answering.
    fallback_ratio = 0.0

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def answers(self) -> Dict[object, Answer]:
        """Answers keyed by query id."""
        return {item.query_id: item.answer for item in self.results}


class ShardedEngine(EnginePool):
    """Exact batch serving: one plan per batch on the pool's engine.

    Args:
        mod: the moving objects database to serve.
        num_shards: the slice slots :meth:`shard_info` reports (at least 1).
        backend: ``"process"`` (default), ``"thread"`` or ``"serial"``.  It
            selects nothing: every label runs the same in-process plan.  It
            is validated and kept only because existing callers (the
            end-to-end bench among them) pass it.
        registry: the :class:`~repro.obs.MetricsRegistry` the
            ``repro_sharded_*`` metrics land in (the engine shares it); a
            private registry when ``None``.

    The lazily built engine, ``warm_up``, ``close`` and the context manager
    are the pool's.
    """

    def __init__(
        self,
        mod: MovingObjectsDatabase,
        num_shards: int = 4,
        *,
        backend: str = "process",
        registry: Optional[MetricsRegistry] = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r} (expected {BACKENDS})")
        if num_shards < 1:
            raise ValueError("need at least one shard")
        super().__init__(mod, registry=registry)
        self.backend = backend
        self.num_shards = num_shards
        self._m_batches = self.registry.counter(
            "repro_sharded_batches_total", "answer_batch calls"
        )
        self._m_batch_seconds = self.registry.histogram(
            "repro_sharded_batch_seconds", help="answer_batch wall time"
        )

    # Stubs the end-to-end bench still calls.

    def clear_answer_cache(self) -> None:
        """No-op: there is no answer cache above the engine's context cache."""

    def shared_segments(self) -> Tuple[str, ...]:
        """Always ``()``: nothing is exported to shared memory."""
        return ()

    def shard_info(self) -> List[ShardInfo]:
        """The slice slots; each one evaluates against all ``len(mod)`` objects."""
        return [
            ShardInfo(shard=shard, members=len(self.mod))
            for shard in range(self.num_shards)
        ]

    def answer_batch(
        self,
        query_ids: Sequence[object],
        t_start: float,
        t_end: float,
        *,
        variant: str = "sometime",
        fraction: float = 0.0,
        band_width: Optional[float] = None,
    ) -> ShardedBatchResult:
        """Answer a batch of UQ3x queries exactly.

        The unique query ids run as one :meth:`answer_group` against the
        full store, and the results come back in request order (a repeated
        id shares one result).

        Args:
            query_ids: ids of the query trajectories (duplicates allowed).
            t_start: shared window start.
            t_end: shared window end.
            variant: ``"sometime"`` (UQ31), ``"always"`` (UQ32), or
                ``"fraction"`` (UQ33).
            fraction: minimum in-band fraction for ``"fraction"``.
            band_width: shared band width; the store's per-query default
                (4r) when ``None``.
        """
        self._m_batches.inc()
        started = time.perf_counter()
        with trace_span(
            "sharded.answer_batch", queries=len(query_ids), variant=variant
        ):
            unique_ids = list(dict.fromkeys(query_ids))
            for query_id in unique_ids:
                if query_id not in self.mod:
                    raise KeyError(f"unknown query id {query_id!r}")
            group = self.answer_group(
                unique_ids,
                t_start,
                t_end,
                variant=variant,
                fraction=fraction,
                band_width=band_width,
            )
        by_id = {
            query_id: ShardedQueryAnswer(
                query_id, answer, len(group.contexts[query_id].functions)
            )
            for query_id, answer in group.answers.items()
        }
        total = time.perf_counter() - started
        self._m_batch_seconds.observe(total)
        return ShardedBatchResult(
            results=[by_id[query_id] for query_id in query_ids],
            total_seconds=total,
        )
