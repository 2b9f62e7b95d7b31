"""The stand-alone batch API: one plan on one in-process engine.

:class:`ShardedEngine` answers a batch of UQ3x queries that share a window
by running them as one :class:`~repro.query_language.planner.QueryPlan` on a
lazily built :class:`~repro.engine.QueryEngine` over the **whole** store.
Every answer is therefore ``==`` to :meth:`QueryEngine.answer` by
construction, and nothing is partitioned, so nothing can escape:
``fallback_ratio`` is constantly 0.

Every ``backend`` label runs this same path.  There is no pool of threads
or processes: two threads over one engine measured slower than one (the
kernels hold the GIL at these sizes), and worker processes cost more per
cold query than the engine they wrapped on every end-to-end workload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine import QueryEngine
from ..engine.answers import VARIANTS, Answer
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import trace_span
from ..query_language.planner import PlannedStatement, plan_statements
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


class ShardedEngine:
    """Exact batch serving: one plan per batch on one engine.

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

    The engine can be used as a context manager; :meth:`close` drops the
    engine, and the next batch rebuilds it lazily.
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
        self.mod = mod
        self.backend = backend
        self.num_shards = num_shards
        self._engine: Optional[QueryEngine] = None
        self.registry = registry if registry is not None else MetricsRegistry()
        self._m_batches = self.registry.counter(
            "repro_sharded_batches_total", "answer_batch calls"
        )
        self._m_batch_seconds = self.registry.histogram(
            "repro_sharded_batch_seconds", help="answer_batch wall time"
        )

    # ------------------------------------------------------------------
    # Introspection and lifecycle.
    # ------------------------------------------------------------------

    def clear_answer_cache(self) -> None:
        """No-op: there is no answer cache above the engine's context cache.

        Kept because the end-to-end bench calls it.
        """

    def shared_segments(self) -> Tuple[str, ...]:
        """Always ``()``: nothing is exported to shared memory."""
        return ()

    def shard_info(self) -> List[ShardInfo]:
        """The slice slots; each one evaluates against all ``len(mod)`` objects."""
        return [
            ShardInfo(shard=shard, members=len(self.mod))
            for shard in range(self.num_shards)
        ]

    def warm_up(self) -> None:
        """Build the engine (index included) now instead of on the first batch."""
        self._local_engine()

    def refresh(self) -> None:
        """Pay the cost of a store change now, not on the next batch.

        The engine patches (or reloads) its index and drops the contexts
        the change can affect.
        """
        self._local_engine().refresh()

    def close(self) -> None:
        """Drop the engine and its cached contexts (idempotent)."""
        self._engine = None

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Evaluation.
    # ------------------------------------------------------------------

    def _local_engine(self) -> QueryEngine:
        if self._engine is None:
            self._engine = QueryEngine(self.mod, registry=self.registry)
        return self._engine

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

        The unique query ids run as one plan against the full store, and
        the results come back in request order (a repeated id shares one
        result).  Answers are ``==`` to a single
        :class:`~repro.engine.QueryEngine` serving the same store.

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
        if t_end < t_start:
            raise ValueError(f"empty query window [{t_start}, {t_end}]")
        if variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {variant!r} (expected {VARIANTS})"
            )
        self._m_batches.inc()
        started = time.perf_counter()
        with trace_span(
            "sharded.answer_batch", queries=len(query_ids), variant=variant
        ):
            unique_ids = list(dict.fromkeys(query_ids))
            for query_id in unique_ids:
                if query_id not in self.mod:
                    raise KeyError(f"unknown query id {query_id!r}")
            plan = plan_statements([
                PlannedStatement(query_id, t_start, t_end, band_width, variant, fraction)
                for query_id in unique_ids
            ])
            with trace_span(
                "planner.execute",
                statements=plan.statement_count,
                groups=len(plan.groups),
            ):
                execution = plan.execute(self._local_engine())
                by_id = {
                    query_id: ShardedQueryAnswer(
                        query_id, answer, len(context.functions)
                    )
                    for query_id, context, answer in zip(
                        unique_ids, execution.contexts, execution.answers
                    )
                }
        total = time.perf_counter() - started
        self._m_batch_seconds.observe(total)
        return ShardedBatchResult(
            results=[by_id[query_id] for query_id in query_ids],
            total_seconds=total,
        )

    def answer(
        self,
        query_id: object,
        t_start: float,
        t_end: float,
        variant: str = "sometime",
        fraction: float = 0.0,
        band_width: Optional[float] = None,
    ) -> Answer:
        """Single-query convenience wrapper over :meth:`answer_batch`."""
        return self.answer_batch(
            [query_id],
            t_start,
            t_end,
            variant=variant,
            fraction=fraction,
            band_width=band_width,
        ).results[0].answer
