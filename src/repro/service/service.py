"""The asyncio query service fronting the batch and streaming layers.

:class:`QueryService` is the request/response front-end the scaling roadmap
puts in front of the engines: callers ``await`` requests — each a
:class:`~repro.query_language.planner.PlannedStatement`, any of the twelve
UQ1x-UQ4x operators — while the service

1. serves repeat requests from a result cache keyed on (statement, MOD
   revision) — any store mutation silently invalidates every affected
   answer because the revision stops matching (:mod:`repro.service.cache`);
2. admits the rest through a *bounded* queue — when the queue is full the
   service either backpressures the caller (``admission="wait"``) or fails
   fast with :class:`ServiceOverloaded` (``admission="reject"``);
3. *coalesces* a drained batch with the planner's one grouping rule
   (:func:`~repro.query_language.planner.plan_statements`): requests that
   share a window and band width ride one engine batch whatever their
   variant, rank and target, so a dashboard refresh of 50 standing queries
   costs one :meth:`~repro.engine.QueryEngine.prepare_batch` pass instead
   of 50 serial preparations;
4. answers each batch on the pool's one warm engine
   (:mod:`repro.service.pool`): a batch whose contexts are all cached at
   the store's revision is a linear read, answered on the event loop; one
   that must refresh or build contexts runs on the loop's default
   executor, so the loop stays responsive;
5. bridges :class:`~repro.streaming.ContinuousMonitor` delta streams to
   async consumers (:meth:`QueryService.subscribe`), completing the
   request/response + push story.

Answers are exact: the oracle tests pin every service response ``==`` to
the statement's naive evaluation at the store revision the response is
labelled with, which is the revision the engine synced to.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..obs.metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from ..obs.tracing import Span, capture, fresh_stack, render_tree, trace_span
from ..query_language.planner import (
    PlannedStatement,
    QueryPlan,
    StatementAnswer,
    plan_statements,
)
from ..trajectories.mod import MovingObjectsDatabase
from .cache import ResultCache, ResultCacheInfo
from .pool import EnginePool
from .requests import QueryResponse
from .subscriptions import DeltaBridge, DeltaSubscription

ADMISSION_POLICIES = ("wait", "reject")

#: Answers the result cache keeps (LRU beyond).
CACHE_CAPACITY = 4096

#: Most queued requests the dispatcher drains into one engine batch.
MAX_BATCH = 64


class ServiceError(RuntimeError):
    """Base class of service-lifecycle and admission errors."""


class ServiceClosed(ServiceError):
    """The service is not running (not started, or already stopped)."""


class ServiceOverloaded(ServiceError):
    """The admission queue is full and the policy is ``"reject"``."""


@dataclass(frozen=True)
class ServiceStats:
    """Immutable snapshot of the serving counters.

    Built fresh by every :meth:`QueryService.stats` call (a thin view over
    the service's metrics registry).
    """

    submitted: int = 0
    cache_hits: int = 0
    rejected: int = 0
    evaluated: int = 0
    batches: int = 0
    max_queue_depth: int = 0

    @property
    def coalescing_factor(self) -> float:
        """Mean requests per engine batch (1.0 = no coalescing happened)."""
        return self.evaluated / self.batches if self.batches else 0.0


@dataclass(frozen=True)
class ExplainResult:
    """One traced request: the response plus its full span tree.

    Attributes:
        response: the served :class:`QueryResponse` (exact, cache-aware).
        span: root of the trace — ``service.explain`` with the group,
            pool and engine spans nested under it.
    """

    response: QueryResponse
    span: Span

    def render(self) -> str:
        """The span tree as indented text with millisecond timings."""
        return render_tree(self.span)


@dataclass
class _Pending:
    """One admitted request waiting for its engine batch."""

    request: PlannedStatement
    future: "asyncio.Future[QueryResponse]"
    submitted: float
    enqueued: float


class QueryService:
    """Async serving of :class:`PlannedStatement` requests over one store.

    Args:
        mod: the store to serve; the same object a
            :class:`~repro.streaming.ContinuousMonitor` may keep ingesting
            into.  ``None`` (with ``data_dir``) warm-restarts the store
            recorded in the data directory instead.
        data_dir: optional durable-tier directory
            (:mod:`repro.persistence`).  When set, every store mutation is
            write-ahead logged before the mutating call returns, and —
            with ``mod=None`` — the service restores the directory's
            recorded store on construction: latest snapshot mapped, WAL
            tail replayed, revision/changelog byte-identical to the
            pre-crash original.
        snapshot_interval: seconds between background checkpoints
            (snapshot + WAL truncation + snapshot pruning) while the
            service runs; ``None`` checkpoints only on :meth:`stop`.
        persistence_fsync: WAL durability policy (``"always"`` /
            ``"batch"`` / ``"never"`` — see
            :class:`~repro.persistence.WriteAheadLog`).
        snapshot_retain: snapshots kept after each checkpoint.
        queue_limit: admission-queue capacity (the backpressure bound).
        admission: ``"wait"`` (default) blocks submitters while the queue
            is full; ``"reject"`` raises :class:`ServiceOverloaded` instead.
        registry: the :class:`~repro.obs.MetricsRegistry` every layer of
            this service reports into (``repro_service_*`` plus the pooled
            engine's metrics); a private registry when ``None``.

    The service builds its own :class:`EnginePool` (closed by :meth:`stop`)
    and a :class:`ResultCache` of :data:`CACHE_CAPACITY` answers, and drains
    at most :data:`MAX_BATCH` queued requests into one engine batch.
    Engine batches that must refresh or build contexts run on the event
    loop's default executor; a batch of cached contexts is answered on the
    loop itself (:meth:`EnginePool.warm`).

    Use as an async context manager, or call :meth:`start` / :meth:`stop`::

        async with QueryService(mod) as service:
            response = await service.submit(PlannedStatement("van-3", lo, hi))
    """

    def __init__(
        self,
        mod: Optional[MovingObjectsDatabase] = None,
        *,
        data_dir: Optional[Union[str, Path]] = None,
        snapshot_interval: Optional[float] = None,
        persistence_fsync: str = "batch",
        snapshot_retain: int = 2,
        queue_limit: int = 256,
        admission: str = "wait",
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {admission!r} "
                f"(expected {ADMISSION_POLICIES})"
            )
        if snapshot_interval is not None and snapshot_interval <= 0:
            raise ValueError("snapshot_interval must be positive")
        self.registry = registry if registry is not None else MetricsRegistry()
        # The durable tier: restore the recorded store when none was given,
        # then shadow every mutation through the write-ahead log.
        self.restore_result = None
        self.persistence = None
        if mod is None:
            if data_dir is None:
                raise ValueError("pass a mod, a data_dir, or both")
            from ..persistence import restore as _restore

            self.restore_result = _restore(data_dir, registry=self.registry)
            mod = self.restore_result.mod
        if data_dir is not None:
            from ..persistence import PersistentStore

            self.persistence = PersistentStore(
                data_dir,
                mod,
                fsync=persistence_fsync,
                retain=snapshot_retain,
                registry=self.registry,
            )
        self._snapshot_interval = snapshot_interval
        self._checkpointer: Optional["asyncio.Task[None]"] = None
        self.mod = mod
        self.pool = EnginePool(mod, registry=self.registry)
        self._queue_limit = queue_limit
        self._admission = admission
        self.cache = ResultCache(capacity=CACHE_CAPACITY, registry=self.registry)
        self._m_submitted = self.registry.counter(
            "repro_service_requests_total", "Requests submitted"
        )
        self._m_cache_hits = self.registry.counter(
            "repro_service_cache_hits_total", "Requests served from the result cache"
        )
        self._m_rejections = self.registry.counter(
            "repro_service_rejections_total", "Requests rejected at admission"
        )
        self._m_evaluated = self.registry.counter(
            "repro_service_evaluated_total", "Requests served by an engine batch"
        )
        self._m_batches = self.registry.counter(
            "repro_service_batches_total", "Engine batches dispatched"
        )
        self._m_inline = self.registry.counter(
            "repro_service_inline_batches_total",
            "Engine batches answered on the event loop (every context cached)",
        )
        self._m_queue_depth = self.registry.gauge(
            "repro_service_queue_depth", "Admitted requests currently queued"
        )
        self._m_admission_wait = self.registry.histogram(
            "repro_service_admission_wait_seconds",
            help="Submit-to-enqueue wait (admission backpressure)",
        )
        self._m_latency = self.registry.histogram(
            "repro_service_latency_seconds",
            help="Submit-to-response service latency",
        )
        self._m_eval = self.registry.histogram(
            "repro_service_eval_seconds",
            help="Engine evaluation time per batch",
        )
        self._m_coalesce = self.registry.histogram(
            "repro_service_coalesce_width",
            buckets=DEFAULT_SIZE_BUCKETS,
            help="Requests coalesced into one engine batch",
        )
        self._max_queue_depth = 0
        self._queue: Optional["asyncio.Queue[object]"] = None
        self._dispatcher: Optional["asyncio.Task[None]"] = None
        self._bridge: Optional[DeltaBridge] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closing = False
        self._sentinel = object()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the service accepts requests."""
        return self._dispatcher is not None and not self._closing

    async def start(self) -> "QueryService":
        """Start the dispatcher; idempotent while running.

        Warms the engine pool off the event loop before accepting work, so
        the first request never pays index construction.
        """
        if self._dispatcher is not None:
            if self._closing:
                raise ServiceClosed("the service is stopping")
            return self
        self._loop = asyncio.get_running_loop()
        if self.persistence is not None and self.persistence.closed:
            # A stop() checkpointed and closed the durable tier; a restart
            # re-attaches it (the directory tip still matches the store).
            from ..persistence import PersistentStore

            self.persistence = PersistentStore(
                self.persistence.data_dir,
                self.mod,
                fsync=self.persistence.wal.fsync_policy,
                retain=self.persistence.snapshotter.retain,
                registry=self.registry,
            )
        await self._loop.run_in_executor(None, self.pool.warm_up)
        self._queue = asyncio.Queue(maxsize=self._queue_limit)
        self._bridge = DeltaBridge(self._loop)
        self._closing = False
        self._dispatcher = self._loop.create_task(self._dispatch_loop())
        if self.persistence is not None and self._snapshot_interval is not None:
            self._checkpointer = self._loop.create_task(self._checkpoint_loop())
        return self

    async def stop(self) -> None:
        """Drain admitted requests, then shut the dispatcher down.

        Requests already in the queue are still served; new :meth:`submit`
        calls raise :class:`ServiceClosed` immediately.  Subscriptions are
        closed, and the engine pool is shut down.
        """
        if self._dispatcher is None:
            return
        self._closing = True
        if self._checkpointer is not None:
            self._checkpointer.cancel()
            try:
                await self._checkpointer
            except asyncio.CancelledError:
                pass
            self._checkpointer = None
        await self._queue.put(self._sentinel)
        await self._dispatcher
        # A submitter that was backpressure-blocked on a full queue can slip
        # its item in *behind* the sentinel; fail those instead of hanging.
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item is not self._sentinel and not item.future.done():
                item.future.set_exception(
                    ServiceClosed("the service stopped before serving this request")
                )
        self._dispatcher = None
        self._queue = None
        if self._bridge is not None:
            self._bridge.close()
            self._bridge = None
        self.pool.close()
        if self.persistence is not None and not self.persistence.closed:
            # Final checkpoint so the next restore maps a snapshot instead
            # of replaying the whole log; closing releases the WAL handle
            # (start() re-attaches on restart).
            await self._loop.run_in_executor(
                None, lambda: self.persistence.close(checkpoint=True)
            )
        self._closing = False

    async def __aenter__(self) -> "QueryService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------

    async def submit(self, request: PlannedStatement) -> QueryResponse:
        """Serve one statement: cache, else admit, coalesce, and evaluate.

        Raises:
            ServiceClosed: when the service is not running.
            ServiceOverloaded: when the queue is full under ``"reject"``.
            KeyError: when the query id is not in the store, for this
                request alone (checked before admission, so its group-mates
                are served).
        """
        if not self.running:
            raise ServiceClosed("the service is not running")
        started = time.perf_counter()
        self._m_submitted.inc()
        revision = self.mod.revision
        cached = self.cache.get(request, revision)
        if cached is not None:
            self._m_cache_hits.inc()
            seconds = time.perf_counter() - started
            self._m_latency.observe(seconds)
            return QueryResponse(
                request=request,
                answer=cached,
                revision=revision,
                backend="cache",
                batch_size=1,
                queue_seconds=0.0,
                service_seconds=seconds,
            )
        if request.query_id not in self.mod:
            raise KeyError(f"unknown query id {request.query_id!r}")
        future: "asyncio.Future[QueryResponse]" = self._loop.create_future()
        pending = _Pending(
            request=request,
            future=future,
            submitted=started,
            enqueued=time.perf_counter(),
        )
        if self._admission == "reject":
            try:
                self._queue.put_nowait(pending)
            except asyncio.QueueFull:
                self._m_rejections.inc()
                raise ServiceOverloaded(
                    f"admission queue full ({self._queue_limit} pending)"
                ) from None
        else:
            await self._queue.put(pending)
            # Under "wait" the put blocks while the queue is full; the
            # enqueued stamp predates it, so re-stamp to keep queue_seconds
            # measuring time *in* the queue, and record the wait itself.
            pending.enqueued = time.perf_counter()
        self._m_admission_wait.observe(pending.enqueued - started)
        depth = self._queue.qsize()
        if depth > self._max_queue_depth:
            self._max_queue_depth = depth
        self._m_queue_depth.set(depth)
        return await future

    async def submit_all(
        self, requests: Sequence[PlannedStatement]
    ) -> List[QueryResponse]:
        """Submit concurrently and gather; order matches ``requests``.

        Concurrent submission is what makes coalescing effective: every
        request sharing a window lands in the queue before the dispatcher
        drains it, so they ride one engine batch.
        """
        return list(
            await asyncio.gather(*(self.submit(request) for request in requests))
        )

    # ------------------------------------------------------------------
    # Streaming subscriptions.
    # ------------------------------------------------------------------

    def attach_monitor(self, monitor) -> None:
        """Forward a :class:`ContinuousMonitor`'s deltas to subscribers.

        The monitor keeps being driven synchronously (``ingest`` /
        ``apply``) by its owner — from any thread; the service only listens.
        """
        if not self.running:
            raise ServiceClosed("start the service before attaching monitors")
        self._bridge.attach(monitor)

    def subscribe(
        self, query_key: Optional[object] = None, buffer: int = 256
    ) -> DeltaSubscription:
        """An async-iterable subscription to attached monitors' deltas.

        Args:
            query_key: restrict to one standing query's events.
            buffer: bounded per-subscription buffer; the oldest delta is
                dropped (and counted) when a slow consumer falls behind.
        """
        if not self.running:
            raise ServiceClosed("start the service before subscribing")
        return self._bridge.subscribe(query_key=query_key, buffer=buffer)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def stats(self) -> ServiceStats:
        """An immutable snapshot of the serving counters.

        Each call builds a fresh :class:`ServiceStats` from the metrics
        registry, so a held snapshot never changes under the caller.
        """
        return ServiceStats(
            submitted=int(self._m_submitted.value),
            cache_hits=int(self._m_cache_hits.value),
            rejected=int(self._m_rejections.value),
            evaluated=int(self._m_evaluated.value),
            batches=int(self._m_batches.value),
            max_queue_depth=self._max_queue_depth,
        )

    def reset(self) -> None:
        """Zero every serving metric (counters, gauges, and histograms).

        Resets the whole registry — including the pooled engine's metrics —
        plus the queue-depth tracker.  Cached answers are kept.
        """
        self.registry.reset()
        self._max_queue_depth = 0

    def cache_info(self) -> ResultCacheInfo:
        """Result-cache counters."""
        return self.cache.info()

    def metrics_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Every metric of the serving stack as plain (JSON-ready) dicts.

        Covers the service layer (requests, cache, queue depth, admission
        wait, coalesce width, latencies), the result cache, and the engine
        behind it (``repro_engine_*``), one registry for the whole stack.
        """
        return self.registry.snapshot()

    def metrics_prometheus(self) -> str:
        """The same metrics in Prometheus text exposition format."""
        return self.registry.render_prometheus()

    async def explain(self, request: PlannedStatement) -> "ExplainResult":
        """Serve one request with tracing on, returning answer + span tree.

        A diagnostic path: the request bypasses the admission queue and
        coalescing (nothing rides along, so the trace is exactly this
        request's work) but goes through the same result cache and the same
        group evaluator as :meth:`submit`, as a one-request group, so what
        it reports is what :meth:`submit` would have done.  Evaluation runs
        off-loop under a tracing capture, and the span tree returned is the
        ``service.explain`` root that call opened, so concurrent explains
        each get their own.  Service
        counters (requests, batches, latencies) are not advanced —
        explaining a request does not distort the serving metrics — though
        the caches it exercises count their hits and misses as usual.
        """
        if not self.running:
            raise ServiceClosed("the service is not running")
        started = time.perf_counter()
        revision = self.mod.revision
        cached = self.cache.get(request, revision)

        def evaluate() -> Tuple[StatementAnswer, int, Span]:
            with capture():
                with trace_span(
                    "service.explain",
                    query=request.query_id,
                    variant=request.variant,
                ) as root:
                    if cached is not None:
                        return cached, revision, root
                    answers, synced = self._evaluate_group(plan_statements([request]))
            return answers[request], synced, root

        answer, answered_at, root = await self._loop.run_in_executor(None, evaluate)
        if cached is None:
            backend = self.pool.backend_kind()
            self.cache.put(request, answered_at, answer)
        else:
            backend = "cache"
        root.set("backend", backend)
        return ExplainResult(
            response=QueryResponse(
                request=request,
                answer=answer,
                revision=answered_at,
                backend=backend,
                batch_size=1,
                queue_seconds=0.0,
                service_seconds=time.perf_counter() - started,
            ),
            span=root,
        )

    # ------------------------------------------------------------------
    # Durability.
    # ------------------------------------------------------------------

    async def checkpoint(self):
        """Run one durable-tier checkpoint off the event loop.

        Snapshot + WAL truncation + snapshot pruning — what the background
        loop does every ``snapshot_interval`` seconds, callable on demand
        (e.g. before a planned shutdown or a backup).

        Returns:
            The published :class:`~repro.persistence.SnapshotInfo`.

        Raises:
            ServiceError: when the service has no ``data_dir``.
        """
        if self.persistence is None:
            raise ServiceError("the service has no durable tier (no data_dir)")
        loop = self._loop if self._loop is not None else asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.persistence.checkpoint)

    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self._snapshot_interval)
            try:
                await self._loop.run_in_executor(None, self.persistence.checkpoint)
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - a failed checkpoint must not
                # take the service down; the WAL still has every mutation
                # and the next interval retries.
                self.registry.counter(
                    "repro_persistence_checkpoint_failures_total",
                    "Background checkpoints that raised",
                ).inc()

    # ------------------------------------------------------------------
    # Dispatcher internals.
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            item = await self._queue.get()
            if item is self._sentinel:
                return
            batch: List[_Pending] = [item]
            stop = False
            while len(batch) < MAX_BATCH:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is self._sentinel:
                    stop = True
                    break
                batch.append(extra)
            self._m_queue_depth.set(self._queue.qsize())
            await self._serve_batch(batch)
            if stop:
                return

    async def _serve_batch(self, batch: List[_Pending]) -> None:
        """Plan one drained batch and evaluate each of the plan's groups.

        A group whose contexts are all cached at the store's revision is
        answered on the loop, then the loop yields once so its submitters
        resume before the next group runs; any other group goes to the
        executor.  Duplicate requests share one statement of the plan.
        """
        waiting: Dict[PlannedStatement, List[_Pending]] = {}
        for pending in batch:
            waiting.setdefault(pending.request, []).append(pending)
        for group in plan_statements(list(waiting)).groups:
            inline = self.pool.warm(
                group.query_ids, group.t_start, group.t_end, group.band_width
            )
            members = [pending for s in group.statements for pending in waiting[s]]
            await self._serve_group(group.plan(), members, inline)
            if inline:
                await asyncio.sleep(0)

    def _evaluate_group(
        self, plan: QueryPlan
    ) -> Tuple[Dict[PlannedStatement, StatementAnswer], int]:
        """Answers of a one-group plan's (distinct) statements, and their revision.

        The one evaluator behind :meth:`submit` (a coalesced group) and
        :meth:`explain` (a one-request group): one ``pool.execute`` of the
        plan, returning each statement's answer and the store revision the
        engine synced to before answering.  It runs on an executor thread,
        or on the loop thread under :func:`~repro.obs.tracing.fresh_stack`;
        either way its span stack is its own, so its ``service.group`` span
        is a root landing in the active recorder (a no-op when tracing is
        off), or nests under ``service.explain``.
        """
        with trace_span(
            "service.group",
            queries=sum(len(group.query_ids) for group in plan.groups),
            requests=plan.statement_count,
        ):
            answers, execution = self.pool.execute(plan)
            return dict(zip(plan.statements, answers)), execution.revision

    async def _serve_group(self, plan: QueryPlan, members: List[_Pending], inline: bool) -> None:
        dequeued = time.perf_counter()
        try:
            if inline:
                with fresh_stack():
                    answers, revision = self._evaluate_group(plan)
            else:
                answers, revision = await self._loop.run_in_executor(
                    None, self._evaluate_group, plan
                )
        except Exception as error:  # noqa: BLE001 - forwarded to awaiters
            # A member whose id left the store after its submit-time check
            # fails alone; its group-mates are served without it.
            kept = [pending for pending in members if pending.request.query_id in self.mod]
            if not isinstance(error, KeyError) or len(kept) == len(members):
                kept = []
            for pending in members:
                if pending not in kept and not pending.future.done():
                    pending.future.set_exception(error)
            if kept:
                requests = dict.fromkeys(pending.request for pending in kept)
                await self._serve_group(plan_statements(list(requests)), kept, False)
            return
        finished = time.perf_counter()
        self._m_batches.inc()
        if inline:
            self._m_inline.inc()
        self._m_evaluated.inc(len(members))
        self._m_coalesce.observe(len(members))
        self._m_eval.observe(finished - dequeued)
        for pending in members:
            answer = answers[pending.request]
            self.cache.put(pending.request, revision, answer)
            self._m_latency.observe(finished - pending.submitted)
            if pending.future.done():
                continue
            pending.future.set_result(
                QueryResponse(
                    request=pending.request,
                    answer=answer,
                    revision=revision,
                    backend=self.pool.backend_kind(),
                    batch_size=len(members),
                    queue_seconds=dequeued - pending.enqueued,
                    service_seconds=finished - pending.submitted,
                )
            )
