"""The batch-splitting engine: partition the queries, never the data.

:class:`ShardedEngine` answers a batch of UQ3x queries by cutting the
**batch** into slices and evaluating every slice against the **whole**
store, through one index and one column store per process.

Why the answers are exact
-------------------------
Every slice runs the single engine's pipeline — corridor filter against the
full store, difference functions, lower envelope, 4r band — on a store with
the same objects in the same insertion order, so each answer is ``==`` to
:meth:`repro.engine.QueryEngine.answer` by construction.  Nothing is
partitioned, so nothing can escape: ``fallback_ratio`` is constantly 0.

Backends
--------
* ``"serial"`` / ``"thread"`` — one name for one path: an in-process
  :class:`QueryEngine` over the store, a batch one
  :class:`~repro.query_language.planner.QueryPlan` (one
  :meth:`~QueryEngine.prepare_batch`, one pass per stage for all of it).
  Two threads over one engine measured *slower* than one (0.71× on cold
  6-query batches at N=2000: the kernels hold the GIL at these sizes), so
  there is no thread pool.
* ``"process"`` — spawned workers that each attach the parent's
  shared-memory column export
  (:class:`~repro.trajectories.shared.SharedColumnarStore`), build their
  own index once per store revision, and take a contiguous slice of the
  batch (46.8 vs 71.4 ms on the same batches with two workers).  A task
  ships a descriptor and query ids, never trajectories.  Segments are owned
  by the parent alone: :meth:`ShardedEngine.close` (or garbage collection)
  shuts the workers down and unlinks every segment.
"""

from __future__ import annotations

import itertools
import os
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine import QueryEngine
from ..engine.answers import VARIANTS, Answer
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Span, span_context, trace_span
from ..trajectories.mod import MovingObjectsDatabase
from ..trajectories.shared import SharedColumnarStore
from .worker import ShardTask, ShardedQueryAnswer, answer_slice, run_shard_task

BACKENDS = ("process", "thread", "serial")

#: Start methods accepted for the process backend.  ``spawn`` is the
#: default: it is the only method safe regardless of the parent's threads
#: (the service layer runs engines next to an asyncio loop and thread
#: pools, where ``fork`` inherits locks in undefined states).
MP_START_METHODS = ("spawn", "forkserver", "fork")

#: Distinguishes engine instances within one parent process so a worker's
#: cached engine is never served to another instance.
_instance_counter = itertools.count(1)


@dataclass
class _Resources:
    """What outlives a batch: worker processes and the shared export.

    Held apart from the engine so the GC finalizer can release them
    without referencing the engine itself.
    """

    workers: List[ProcessPoolExecutor] = field(default_factory=list)
    shared: Optional[SharedColumnarStore] = None

    def release(self) -> None:
        """Shut down the workers and unlink the shared segments."""
        while self.workers:
            self.workers.pop().shutdown()
        shared, self.shared = self.shared, None
        if shared is not None:
            shared.close()


@dataclass(frozen=True, slots=True)
class ShardInfo:
    """One slice slot: every slot evaluates against the whole store."""

    shard: int
    members: int


@dataclass
class ShardedBatchTelemetry:
    """Per-slice timing of one batch (parent-observed, includes IPC)."""

    shard: int
    queries: int
    seconds: float


@dataclass
class ShardedBatchResult:
    """Outcome of one batch evaluation."""

    results: List[ShardedQueryAnswer]
    total_seconds: float
    shard_telemetry: List[ShardedBatchTelemetry]
    #: Worker-side engine rebuilds this batch (process backend): one per
    #: worker per store revision, 0 at steady state.
    worker_rebuilds: int = 0

    #: Constants (not fields): nothing is partitioned, so no query can fall
    #: outside its partition and need re-answering.
    escaped_ids = ()
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
    """Exact batch serving that splits the batch across workers.

    Args:
        mod: the moving objects database to serve.
        num_shards: upper bound on the slices a batch is cut into (the
            process backend cuts ``min(num_shards, workers, batch size)``).
        backend: ``"process"`` (default), ``"thread"``, or ``"serial"``.
        max_workers: process-pool width (default ``min(num_shards,
            cpu_count)``).
        mp_start_method: multiprocessing start method for the process
            backend (``"spawn"`` by default — never the platform default,
            which forks on Linux and is unsafe next to live threads).
        registry: the :class:`~repro.obs.MetricsRegistry` sharded metrics
            land in (``repro_sharded_*``; the in-process engine shares it);
            a private registry when ``None``.

    The engine can be used as a context manager; :meth:`close` is
    idempotent and shuts the workers down *and* unlinks the shared-memory
    export.  A ``weakref.finalize`` hook does the same at garbage
    collection or interpreter shutdown, so neither worker processes nor
    ``/dev/shm`` segments can leak past the engine's lifetime.
    """

    def __init__(
        self,
        mod: MovingObjectsDatabase,
        num_shards: int = 4,
        *,
        backend: str = "process",
        max_workers: Optional[int] = None,
        cache_size: int = 256,
        mp_start_method: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r} (expected {BACKENDS})")
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if mp_start_method is not None and mp_start_method not in MP_START_METHODS:
            raise ValueError(
                f"unknown start method {mp_start_method!r} "
                f"(expected {MP_START_METHODS})"
            )
        self.mod = mod
        self.backend = backend
        self.num_shards = num_shards
        self._cache_size = cache_size
        self._max_workers = max_workers
        self._mp_start_method = mp_start_method or "spawn"
        self._token = (os.getpid(), next(_instance_counter))
        self._engine: Optional[QueryEngine] = None
        #: Released by close() or, failing that, the GC finalizer.
        self._resources = _Resources()
        self._finalizer = weakref.finalize(self, self._resources.release)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._m_rebuilds = self.registry.counter(
            "repro_sharded_worker_rebuilds_total",
            "Worker-side engine rebuilds (one per worker per store revision)",
        )
        self._m_rebuild_seconds = self.registry.histogram(
            "repro_sharded_worker_rebuild_seconds",
            help="Worker-side attach + index time of one rebuild",
        )
        self._m_batches = self.registry.counter(
            "repro_sharded_batches_total", "answer_batch calls"
        )
        self._m_batch_seconds = self.registry.histogram(
            "repro_sharded_batch_seconds", help="answer_batch wall time"
        )
        self._m_shard_seconds = self.registry.histogram(
            "repro_sharded_shard_seconds",
            help="Per-slice dispatch-to-result time (includes IPC)",
        )

    # ------------------------------------------------------------------
    # Introspection and lifecycle.
    # ------------------------------------------------------------------

    @property
    def worker_rebuilds(self) -> int:
        """Total worker-side engine rebuilds observed so far."""
        return int(self._m_rebuilds.value)

    def clear_answer_cache(self) -> None:
        """No-op: there is no parent-side answer cache any more.

        Kept because the frozen end-to-end bench still calls it; repeated
        batches are served by the engine's context cache.
        """

    def shared_segments(self) -> Tuple[str, ...]:
        """Names of the live shared-memory segments (process backend)."""
        shared = self._resources.shared
        return () if shared is None else shared.segment_names()

    def shard_info(self) -> List[ShardInfo]:
        """The slice slots; each one evaluates against all ``len(mod)`` objects."""
        return [
            ShardInfo(shard=shard, members=len(self.mod))
            for shard in range(self.num_shards)
        ]

    def warm_up(self) -> None:
        """Pay the one-time serving costs now instead of on the first batch.

        The in-process backends build the engine (index included).  The
        process backend spawns its workers, publishes the shared-memory
        export and sends every worker an empty task, so each has attached
        the export and built its index before the first query arrives.
        Idempotent, and cheap when already warm.
        """
        if self.backend == "process":
            self._run_process([() for _ in self._workers()], 0.0, 0.0, "sometime", 0.0)
        else:
            self._local_engine()

    def refresh(self) -> None:
        """Pay the parent-side cost of a store change now, not on the next batch.

        In-process: the engine patches (or reloads) its index and drops the
        contexts the change can affect.  Process: the changed objects are
        exported as a patch edition; workers rebuild on their next task.
        """
        if self.backend == "process":
            self._shared_store()
        else:
            self._local_engine().refresh()

    def close(self) -> None:
        """Release the workers and the shared-memory export (idempotent).

        The engine stays usable afterwards — the next batch lazily rebuilds
        whatever it needs — but nothing OS-visible (worker processes,
        ``/dev/shm`` segments) survives the call.
        """
        self._resources.release()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Evaluation.
    # ------------------------------------------------------------------

    def _local_engine(self) -> QueryEngine:
        """The one engine the in-process backends serve from."""
        if self._engine is None:
            self._engine = QueryEngine(
                self.mod, cache_size=self._cache_size, registry=self.registry
            )
        return self._engine

    def _workers(self) -> List[ProcessPoolExecutor]:
        """One single-process executor per worker.

        Separate executors (rather than one pool) pin slice ``k`` to worker
        ``k``: a repeated batch finds its contexts cached where it lands,
        and :meth:`warm_up` reaches every worker exactly once.
        """
        workers = self._resources.workers
        if not workers:
            width = min(
                self.num_shards, self._max_workers or os.cpu_count() or 1
            )
            context = get_context(self._mp_start_method)
            workers.extend(
                ProcessPoolExecutor(max_workers=1, mp_context=context)
                for _ in range(width)
            )
        return workers

    def _shared_store(self) -> SharedColumnarStore:
        """The shared column export, built or synced to the store on demand."""
        shared = self._resources.shared
        if shared is None:
            shared = self._resources.shared = SharedColumnarStore(self.mod)
        else:
            shared.sync()
        return shared

    def _run_process(
        self,
        slices: Sequence[Sequence[Tuple[object, float]]],
        t_start: float,
        t_end: float,
        variant: str,
        fraction: float,
    ) -> Tuple[List[Sequence[ShardedQueryAnswer]], List[float], int]:
        """Send slice ``k`` to worker ``k``; returns (results, seconds, rebuilds)."""
        with trace_span(
            "sharded.dispatch", backend="process", shards=len(slices)
        ) as dispatch:
            workers = self._workers()
            descriptor = self._shared_store().descriptor()
            context = span_context()
            started = time.perf_counter()
            futures = [
                worker.submit(
                    run_shard_task,
                    ShardTask(
                        token=self._token,
                        shard=shard,
                        store=descriptor,
                        cache_size=self._cache_size,
                        queries=tuple(queries),
                        t_start=t_start,
                        t_end=t_end,
                        variant=variant,
                        fraction=fraction,
                        span_context=context,
                    ),
                )
                for shard, (worker, queries) in enumerate(zip(workers, slices))
            ]
            outcomes: List[Sequence[ShardedQueryAnswer]] = []
            seconds: List[float] = []
            rebuilds = 0
            for future in futures:
                result = future.result()
                seconds.append(time.perf_counter() - started)
                self._m_shard_seconds.observe(seconds[-1])
                if result.rebuilt:
                    rebuilds += 1
                    self._m_rebuild_seconds.observe(result.rebuild_seconds)
                if result.spans is not None:
                    dispatch.adopt(Span.from_dict(result.spans))
                outcomes.append(result.outcomes)
        self._m_rebuilds.inc(rebuilds)
        return outcomes, seconds, rebuilds

    def _run_local(
        self,
        query_ids: List[object],
        t_start: float,
        t_end: float,
        variant: str,
        fraction: float,
        band_width: Optional[float],
    ) -> Tuple[List[Sequence[ShardedQueryAnswer]], List[float], int]:
        """Evaluate the whole batch as one slice on the in-process engine."""
        with trace_span("sharded.dispatch", backend=self.backend, shards=1):
            started = time.perf_counter()
            with trace_span("shard.local", shard=0, queries=len(query_ids)):
                outcomes = answer_slice(
                    self._local_engine(), 0,
                    [(query_id, band_width) for query_id in query_ids],
                    t_start, t_end, variant, fraction,
                )
            seconds = time.perf_counter() - started
        self._m_shard_seconds.observe(seconds)
        return [outcomes], [seconds], 0

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

        The unique query ids are cut into contiguous slices, each slice is
        evaluated against the full store (in parallel on the process
        backend), and the results come back in request order.  Answers are
        ``==`` to a single :class:`~repro.engine.QueryEngine` serving the
        same store.

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
            slices: List[Sequence[ShardedQueryAnswer]] = []
            seconds: List[float] = []
            rebuilds = 0
            if unique_ids and self.backend == "process":
                specs = [
                    (
                        query_id,
                        band_width
                        if band_width is not None
                        else self.mod.default_band_width(query_id),
                    )
                    for query_id in unique_ids
                ]
                count = min(len(self._workers()), len(specs))
                bounds = [len(specs) * k // count for k in range(count + 1)]
                slices, seconds, rebuilds = self._run_process(
                    [specs[lo:hi] for lo, hi in zip(bounds, bounds[1:])],
                    t_start, t_end, variant, fraction,
                )
            elif unique_ids:
                slices, seconds, rebuilds = self._run_local(
                    unique_ids, t_start, t_end, variant, fraction, band_width
                )
            merged = {
                item.query_id: item for outcomes in slices for item in outcomes
            }
        total = time.perf_counter() - started
        self._m_batch_seconds.observe(total)
        return ShardedBatchResult(
            results=[merged[query_id] for query_id in query_ids],
            total_seconds=total,
            shard_telemetry=[
                ShardedBatchTelemetry(
                    shard=shard, queries=len(outcomes), seconds=elapsed
                )
                for shard, (outcomes, elapsed) in enumerate(zip(slices, seconds))
            ],
            worker_rebuilds=rebuilds,
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
