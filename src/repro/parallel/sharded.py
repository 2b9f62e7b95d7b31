"""The sharded parallel engine: partitioned, exact, multi-backend serving.

:class:`ShardedEngine` partitions the MOD into spatial shards (a
:class:`~repro.parallel.plan.ShardPlan`), maintains one candidate-complete
member set per shard (owned objects plus a boundary-corridor *halo* of
replicated neighbors), evaluates each query on the shard owning its
trajectory — under a ``ProcessPoolExecutor``, a thread pool, or serially —
and merges the per-shard answers into exact global answers.

Why sharded answers are exact
-----------------------------
For a query ``q`` with window ``[t0, t1]`` and band width ``W``, the shard
computes the conservative corridor radius ``c = U_s + W`` where ``U_s`` is
the smallest, over shard members fully covering the window, of the member's
maximum distance to ``q`` (:func:`repro.engine.filtering.corridor_probe_bulk`).
Because the shard's members are a subset of the store, ``U_s >= U_global``,
so ``c`` is at least the single-engine corridor.  The shard's answer is
trusted only when the *probe rectangle* (``q``'s window-clipped polyline
expanded by ``c``) is contained in the shard's *coverage rectangle* (the
shard's core region — the bounding box of its owned objects' footprint
centers — expanded by the halo), because the membership rule guarantees
every object whose radius-expanded bounds intersect the coverage is
replicated into the shard.  Containment then implies every object absent
from the shard keeps a distance greater than ``c >= U_s + W`` from ``q``
throughout the window, so it can neither shape the lower envelope (which
stays at or below ``U_s``) nor enter the ``W``-band — exactly the argument
that makes single-engine corridor filtering safe.  Queries failing the check
*escape* and are re-answered against the full store by a fallback engine, so
every answer is exact regardless of shard count or halo width; the plan only
decides how often the fast path applies.

Zero-copy process execution
---------------------------
The process backend ships **no trajectories**.  The parent exports the
store's packed columns once into shared-memory editions
(:class:`~repro.trajectories.shared.SharedColumnarStore`); each
:class:`~repro.parallel.worker.ShardTask` carries only the export's
descriptor (segment names + revision), the shard's member ids, and the
query specs.  Workers attach by name, build zero-copy NumPy views over the
parent's pages, and cache the resulting shard engine keyed by the task
token + fingerprint.  Mutations route as deltas: the parent re-packs only
the changed objects into a small *patch* edition and bumps the affected
shards' fingerprints; workers re-attach lazily on their next task for a
bumped shard.  Segment ownership is strictly parent-side — :meth:`close`
(or engine garbage collection) unlinks every segment, so no ``/dev/shm``
entries survive a run.

Repeated identical batches additionally hit a parent-side answer cache
(cleared on any store mutation or repartition), mirroring the single
engine's context cache so a warm dashboard refresh costs no IPC at all.

Update routing
--------------
:meth:`ShardedEngine.refresh` consumes the parent MOD's changelog and routes
each change to the shards whose member sets it touches: the owning shard and
any shard whose coverage the (old or new) trajectory footprint intersects.
Thread/serial shards patch their engines incrementally through the existing
changelog machinery; process shards bump a fingerprint so only their workers
rebuild — from the shared export, never from a pickled payload.  Batch and
streaming paths thus share one partitioned execution layer: point the
engine at the same MOD a :class:`~repro.streaming.ContinuousMonitor`
ingests into and call ``answer_batch`` after each ``apply``.
"""

from __future__ import annotations

import itertools
import os
import time
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine import QueryEngine
from ..engine.answers import VARIANTS, Answer
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Span, detached_span, span_context, trace_span
from ..trajectories.mod import MovingObjectsDatabase
from ..trajectories.shared import SharedColumnarStore, SharedPackDescriptor
from .plan import (
    Bounds,
    ShardPlan,
    bounds_center,
    bounds_expand,
    bounds_intersect,
    bounds_union,
    build_plan,
    expanded_bounds,
)
from .worker import (
    QuerySpec,
    ShardQueryOutcome,
    ShardTask,
    evaluate_shard,
    run_shard_task,
)

BACKENDS = ("process", "thread", "serial")

#: Start methods accepted for the process backend.  ``spawn`` is the
#: default: it is the only method safe regardless of the parent's threads
#: (the service layer runs engines next to an asyncio loop and thread
#: pools, where ``fork`` inherits locks in undefined states).
MP_START_METHODS = ("spawn", "forkserver", "fork")

#: Distinguishes engine instances within one parent process so worker-side
#: caches never mix shards of different engines.
_instance_counter = itertools.count(1)


def _release_resources(resources: Dict[str, object]) -> None:
    """Shut down the pool and unlink shared segments (GC / close hook)."""
    pool = resources.get("pool")
    if pool is not None:
        resources["pool"] = None
        pool.shutdown()
    shared = resources.get("shared")
    if shared is not None:
        resources["shared"] = None
        shared.close()


@dataclass
class _ShardState:
    """Parent-side state of one shard."""

    shard: int
    owned: set
    #: Shard view of the parent store: owned + replicated trajectories.
    mod: MovingObjectsDatabase
    #: Parent object revision of each member, to diff membership cheaply.
    member_revisions: Dict[object, int] = field(default_factory=dict)
    region: Optional[Bounds] = None
    coverage: Optional[Bounds] = None
    complete: bool = False
    #: Bumped whenever membership or member content changes; the process
    #: backend's worker cache key.
    fingerprint: int = 0
    #: Thread/serial backends only: the shard's long-lived engine.
    engine: Optional[QueryEngine] = None


@dataclass(frozen=True, slots=True)
class ShardInfo:
    """Introspection snapshot of one shard's current membership."""

    shard: int
    owned: int
    replicated: int
    region: Optional[Bounds]
    coverage: Optional[Bounds]
    complete: bool

    @property
    def members(self) -> int:
        """Total member trajectories the shard currently holds."""
        return self.owned + self.replicated


@dataclass(frozen=True, slots=True)
class ShardedQueryAnswer:
    """One query's merged result.

    Attributes:
        query_id: the query trajectory id.
        answer: the exact UQ3x answer (member -> non-zero intervals).
        shard: index of the owning shard.
        via_fallback: the query escaped its shard's safety check and was
            answered by the full-store fallback engine.
        candidate_count: candidates that entered envelope construction
            (shard-local path only; 0 for fallback answers).
        corridor: shard-locally computed corridor radius (``inf`` when the
            shard was complete or had no fully-covering candidate).
        seconds: evaluation wall-clock for this query (the original
            evaluation's, when served from the answer cache).
    """

    query_id: object
    answer: Answer
    shard: int
    via_fallback: bool
    candidate_count: int
    corridor: float
    seconds: float


@dataclass
class ShardedBatchTelemetry:
    """Per-shard timing of one batch (parent-observed, includes IPC)."""

    shard: int
    queries: int
    seconds: float


@dataclass
class ShardedBatchResult:
    """Outcome of one sharded batch evaluation."""

    results: List[ShardedQueryAnswer]
    total_seconds: float
    shard_telemetry: List[ShardedBatchTelemetry]
    #: Queries served straight from the parent's answer cache.
    cache_hits: int = 0
    #: Worker-side shard-engine rebuilds this batch (process backend);
    #: 0 at steady state — every task reused a cached engine.
    worker_rebuilds: int = 0

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def answers(self) -> Dict[object, Answer]:
        """Merged answers keyed by query id."""
        return {item.query_id: item.answer for item in self.results}

    @property
    def escaped_ids(self) -> Tuple[object, ...]:
        """Queries that fell back to the full-store engine."""
        return tuple(
            item.query_id for item in self.results if item.via_fallback
        )

    @property
    def fallback_ratio(self) -> float:
        """Fraction of the batch answered by the fallback engine."""
        if not self.results:
            return 0.0
        return len(self.escaped_ids) / len(self.results)


class ShardedEngine:
    """Partitioned, exact query serving over spatial shards.

    Args:
        mod: the (non-empty) moving objects database to serve.
        num_shards: requested shard count (fewer when the store is smaller).
        backend: ``"process"`` (default), ``"thread"``, or ``"serial"``.
        method: partitioning method, ``"str"`` / ``"grid"`` / ``"rtree"``.
        halo: boundary-replication width, or ``"auto"`` (half a shard tile).
        index: per-shard index kind (``"rtree"`` or ``"grid"``), or ``None``
            to disable shard-local candidate filtering.
        max_workers: pool width; defaults to ``min(num_shards, cpu_count)``.
        mp_start_method: multiprocessing start method for the process
            backend (``"spawn"`` by default — never the platform default,
            which forks on Linux and is unsafe next to live threads).
        answer_cache_size: capacity of the parent-side answer cache
            (0 disables it); the cache is invalidated by any store change.
        plan: a prebuilt :class:`ShardPlan` overriding ``num_shards`` /
            ``method`` / ``halo``.
        registry: the :class:`~repro.obs.MetricsRegistry` sharded metrics
            land in (``repro_sharded_*``; shard/fallback engines share it);
            a private registry when ``None``.

    The engine can be used as a context manager; :meth:`close` is
    idempotent and shuts the worker pool down *and* unlinks the
    shared-memory export.  A ``weakref.finalize`` hook does the same at
    garbage collection or interpreter shutdown, so neither pool processes
    nor ``/dev/shm`` segments can leak past the engine's lifetime.
    """

    def __init__(
        self,
        mod: MovingObjectsDatabase,
        num_shards: int = 4,
        *,
        backend: str = "process",
        method: str = "str",
        halo: float | str = "auto",
        index: Optional[str] = "rtree",
        leaf_capacity: int = 16,
        grid_cells: int = 32,
        max_workers: Optional[int] = None,
        cache_size: int = 256,
        mp_start_method: Optional[str] = None,
        answer_cache_size: int = 4096,
        plan: Optional[ShardPlan] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r} (expected {BACKENDS})")
        if index is not None and index not in ("rtree", "grid"):
            raise ValueError(
                f"unknown index kind {index!r} (expected 'rtree', 'grid', or None)"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if mp_start_method is not None and mp_start_method not in MP_START_METHODS:
            raise ValueError(
                f"unknown start method {mp_start_method!r} "
                f"(expected {MP_START_METHODS})"
            )
        if answer_cache_size < 0:
            raise ValueError("answer_cache_size must be non-negative")
        self.mod = mod
        self.backend = backend
        self._index_kind = index
        self._leaf_capacity = leaf_capacity
        self._grid_cells = grid_cells
        self._cache_size = cache_size
        self._max_workers = max_workers
        self._mp_start_method = mp_start_method or "spawn"
        self.plan = plan if plan is not None else build_plan(
            mod, num_shards, method=method, halo=halo
        )
        self._token_base = (os.getpid(), next(_instance_counter))
        self._fingerprints = itertools.count(1)
        #: Pool + shared export, released by close() or the GC finalizer.
        #: Kept in one mutable dict so the finalizer never references self.
        self._resources: Dict[str, object] = {"pool": None, "shared": None}
        self._finalizer = weakref.finalize(
            self, _release_resources, self._resources
        )
        self._answer_cache: "OrderedDict[tuple, ShardedQueryAnswer]" = (
            OrderedDict()
        )
        self._answer_cache_size = answer_cache_size
        self._fallback: Optional[QueryEngine] = None
        self.registry = registry if registry is not None else MetricsRegistry()
        self._m_cache_hits = self.registry.counter(
            "repro_sharded_answer_cache_hits_total",
            "Queries served from the parent-side answer cache",
        )
        self._m_rebuilds = self.registry.counter(
            "repro_sharded_worker_rebuilds_total",
            "Worker-side shard-engine rebuilds",
        )
        self._m_fallback = self.registry.counter(
            "repro_sharded_fallback_total",
            "Queries escaped to the full-store fallback engine",
        )
        self._m_batches = self.registry.counter(
            "repro_sharded_batches_total", "answer_batch calls"
        )
        self._m_batch_seconds = self.registry.histogram(
            "repro_sharded_batch_seconds", help="answer_batch wall time"
        )
        self._m_shard_seconds = self.registry.histogram(
            "repro_sharded_shard_seconds",
            help="Per-shard dispatch-to-result time (includes IPC)",
        )
        self._bounds: Dict[object, Bounds] = {}
        self._bounds_revision: Dict[object, int] = {}
        self._band_widths: Dict[object, float] = {}
        self._owner: Dict[object, int] = self.plan.owner_of()
        self._states: List[_ShardState] = self._fresh_states()
        self._synced_revision: Optional[int] = None
        self._sync()

    def _fresh_states(self) -> List["_ShardState"]:
        """Empty per-shard member stores, column-seeded from the parent.

        Shard member stores hold references to the parent's trajectory
        objects, so sharing columns lets every shard-side kernel borrow the
        parent's packed arrays instead of re-reading sample tuples per
        shard.
        """
        states = [
            _ShardState(shard=shard, owned=set(group), mod=MovingObjectsDatabase())
            for shard, group in enumerate(self.plan.groups)
        ]
        for state in states:
            state.mod.share_columns_with(self.mod)
        return states

    # ------------------------------------------------------------------
    # Introspection and lifecycle.
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Actual shard count (may be below the requested one)."""
        return len(self._states)

    @property
    def halo(self) -> float:
        """The resolved boundary-replication width."""
        return self.plan.halo

    @property
    def fallback_evaluations(self) -> int:
        """Total queries answered by the full-store fallback engine so far.

        A thin view over ``repro_sharded_fallback_total`` in the engine's
        metrics registry (as are the two accessors below over theirs).
        """
        return int(self._m_fallback.value)

    @property
    def answer_cache_hits(self) -> int:
        """Total queries served from the parent-side answer cache so far."""
        return int(self._m_cache_hits.value)

    @property
    def worker_rebuilds(self) -> int:
        """Total worker-side shard-engine rebuilds observed so far."""
        return int(self._m_rebuilds.value)

    def clear_answer_cache(self) -> None:
        """Drop every cached answer (benchmarking the uncached path)."""
        self._answer_cache.clear()

    def shared_segments(self) -> Tuple[str, ...]:
        """Names of the live shared-memory segments (process backend)."""
        shared = self._resources.get("shared")
        if shared is None:
            return ()
        return shared.segment_names()

    def shard_info(self) -> List[ShardInfo]:
        """Current membership snapshot of every shard."""
        self._sync()
        return [
            ShardInfo(
                shard=state.shard,
                owned=len(state.owned & set(state.member_revisions)),
                replicated=len(state.member_revisions)
                - len(state.owned & set(state.member_revisions)),
                region=state.region,
                coverage=state.coverage,
                complete=state.complete,
            )
            for state in self._states
        ]

    def plan_coverage(self) -> float:
        """Fraction of owned trajectories living in candidate-complete shards.

        A complete shard answers its queries without touching the
        fallback engine, so this is the planner's cost-model signal for
        how well a sharded fan-out will avoid fallback re-evaluation
        (1.0: every query shard-local; 0.0: everything falls back).
        """
        infos = self.shard_info()
        owned = sum(info.owned for info in infos)
        if owned == 0:
            return 0.0
        return sum(info.owned for info in infos if info.complete) / owned

    def owner_of(self, object_id: object) -> int:
        """Index of the shard owning an object's queries."""
        self._sync()
        if object_id not in self._owner:
            raise KeyError(f"unknown object id {object_id!r}")
        return self._owner[object_id]

    def warm_up(self) -> None:
        """Pay the one-time serving costs now instead of on the first batch.

        Syncs shard membership, then — for the process backend — spins up
        the worker pool and publishes the shared-memory column export; the
        thread/serial backends build every shard's engine (index included)
        instead.  Idempotent, and cheap when already warm.
        """
        self._sync()
        if self.backend == "process":
            self._process_pool()
            self._shared_descriptor()
        else:
            for state in self._states:
                self._shard_engine(state)

    def close(self) -> None:
        """Release the worker pool and the shared-memory export (idempotent).

        The engine stays usable afterwards — the next batch lazily rebuilds
        whatever it needs — but nothing OS-visible (pool processes,
        ``/dev/shm`` segments) survives the call.
        """
        _release_resources(self._resources)
        self._answer_cache.clear()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Membership maintenance (changelog routing).
    # ------------------------------------------------------------------

    def refresh(self) -> List[int]:
        """Route parent-store changes to shards; returns changed shard ids.

        Called implicitly by :meth:`answer_batch`; exposed for callers that
        want to pay the routing cost eagerly (e.g. right after a streaming
        ``apply``) or inspect which shards an update wave touched.
        """
        return self._sync()

    def repartition(
        self,
        num_shards: Optional[int] = None,
        method: Optional[str] = None,
        halo: float | str | None = None,
    ) -> ShardPlan:
        """Rebuild the ownership plan from the store's current geometry.

        Ownership is sticky under :meth:`refresh` — an object that drifted
        across the region stays with (and stretches) its original shard.
        After heavy drift, repartitioning restores tight shard regions.
        """
        self.plan = build_plan(
            self.mod,
            num_shards if num_shards is not None else max(1, self.num_shards),
            method=method if method is not None else self.plan.method,
            halo=halo if halo is not None else self.plan.halo,
        )
        self._owner = self.plan.owner_of()
        self._states = self._fresh_states()
        self._synced_revision = None
        self._answer_cache.clear()
        self._sync()
        return self.plan

    def _refresh_bounds(self) -> None:
        """Re-derive the expanded-bounds cache for changed objects only."""
        current = set(self.mod.object_ids)
        for object_id in list(self._bounds):
            if object_id not in current:
                del self._bounds[object_id]
                del self._bounds_revision[object_id]
        for object_id in self.mod.object_ids:
            revision = self.mod.object_revision(object_id)
            if self._bounds_revision.get(object_id) != revision:
                self._bounds[object_id] = expanded_bounds(self.mod.get(object_id))
                self._bounds_revision[object_id] = revision

    def _center_point(self, object_id: object) -> Bounds:
        """An object's footprint center as a degenerate rectangle."""
        x, y = bounds_center(self._bounds[object_id])
        return (x, y, x, y)

    def _assign_shard(self, object_id: object) -> int:
        """Owning shard for a newly added object: nearest region, then load."""
        center = bounds_center(self._bounds[object_id])
        best: Optional[Tuple[float, int, int]] = None
        for state in self._states:
            if state.region is None:
                distance = float("inf")
            else:
                rx, ry = bounds_center(state.region)
                distance = (rx - center[0]) ** 2 + (ry - center[1]) ** 2
            key = (distance, len(state.owned), state.shard)
            if best is None or key < best:
                best = key
        assert best is not None  # the plan guarantees at least one shard
        return best[2]

    def _sync(self) -> List[int]:
        """Bring shard member sets up to date; returns changed shard ids."""
        if self._synced_revision == self.mod.revision:
            return []
        # Any store change invalidates every cached answer wholesale; the
        # cache only ever serves batches between mutations.
        self._answer_cache.clear()
        self._refresh_bounds()
        self._band_widths = {}
        current_ids = self.mod.object_ids
        current = set(current_ids)

        # Ownership: drop removed objects, adopt new ones.
        for object_id in list(self._owner):
            if object_id not in current:
                shard = self._owner.pop(object_id)
                self._states[shard].owned.discard(object_id)
        # Regions of surviving owned sets first, so adoption is geometric.
        # A shard's region is the bounding box of its owned objects'
        # footprint *centers*, not of their full bounds: one region-spanning
        # trajectory must not blow the coverage (and hence the replication
        # set) up to the whole map.  Queries on such outliers simply fail
        # the per-query containment check and fall back — correctness never
        # depends on the region containing its owners.
        for state in self._states:
            region: Optional[Bounds] = None
            for object_id in state.owned:
                if object_id in current:
                    region = bounds_union(
                        region, self._center_point(object_id)
                    )
            state.region = region
        for object_id in current_ids:
            if object_id not in self._owner:
                shard = self._assign_shard(object_id)
                self._owner[object_id] = shard
                state = self._states[shard]
                state.owned.add(object_id)
                state.region = bounds_union(
                    state.region, self._center_point(object_id)
                )

        changed: List[int] = []
        for state in self._states:
            state.coverage = (
                None
                if state.region is None
                else bounds_expand(state.region, self.plan.halo)
            )
            membership = [
                object_id
                for object_id in current_ids
                if object_id in state.owned
                or (
                    state.coverage is not None
                    and bounds_intersect(self._bounds[object_id], state.coverage)
                )
            ]
            member_set = set(membership)
            touched = False
            for object_id in list(state.member_revisions):
                if object_id not in member_set:
                    state.mod.remove(object_id)
                    del state.member_revisions[object_id]
                    touched = True
            for object_id in membership:
                revision = self._bounds_revision[object_id]
                if state.member_revisions.get(object_id) != revision:
                    state.mod.upsert(self.mod.get(object_id))
                    state.member_revisions[object_id] = revision
                    touched = True
            state.complete = len(member_set) == len(current)
            if touched:
                state.fingerprint = next(self._fingerprints)
                changed.append(state.shard)
        self._synced_revision = self.mod.revision
        return changed

    # ------------------------------------------------------------------
    # Evaluation.
    # ------------------------------------------------------------------

    def _default_band_width(self, query_id: object) -> float:
        """The full store's default 4r band width, memoized until a change."""
        width = self._band_widths.get(query_id)
        if width is None:
            width = self.mod.default_band_width(query_id)
            self._band_widths[query_id] = width
        return width

    def _shard_engine(self, state: _ShardState) -> QueryEngine:
        """The shard's long-lived engine (thread/serial backends)."""
        if state.engine is None:
            state.engine = QueryEngine(
                state.mod,
                index=self._index_kind,
                leaf_capacity=self._leaf_capacity,
                grid_cells=self._grid_cells,
                cache_size=self._cache_size,
                registry=self.registry,
            )
        return state.engine

    def _process_pool(self) -> ProcessPoolExecutor:
        pool = self._resources.get("pool")
        if pool is None:
            workers = self._max_workers or min(
                len(self._states), os.cpu_count() or 1
            )
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=get_context(self._mp_start_method),
            )
            self._resources["pool"] = pool
        return pool

    def _thread_pool(self) -> ThreadPoolExecutor:
        pool = self._resources.get("pool")
        if pool is None:
            workers = self._max_workers or min(
                len(self._states), os.cpu_count() or 1
            )
            pool = ThreadPoolExecutor(max_workers=workers)
            self._resources["pool"] = pool
        return pool

    def _shared_descriptor(self) -> SharedPackDescriptor:
        """The current shared column export, built/synced on demand."""
        shared = self._resources.get("shared")
        if shared is None:
            shared = SharedColumnarStore(self.mod)
            self._resources["shared"] = shared
        else:
            shared.sync()
        return shared.descriptor()

    def _payload(
        self,
        state: _ShardState,
        specs: Tuple[QuerySpec, ...],
        descriptor: SharedPackDescriptor,
        context: Optional[Tuple[str, float]] = None,
    ) -> ShardTask:
        return ShardTask(
            token=(*self._token_base, state.shard),
            fingerprint=state.fingerprint,
            store=descriptor,
            member_ids=tuple(
                trajectory.object_id for trajectory in state.mod
            ),
            index_kind=self._index_kind,
            leaf_capacity=self._leaf_capacity,
            grid_cells=self._grid_cells,
            cache_size=self._cache_size,
            queries=specs,
            coverage=state.coverage,
            complete=state.complete,
            cache_slots=len(self._states),
            span_context=context,
        )

    def _run_shards(
        self, grouped: Dict[int, Tuple[QuerySpec, ...]]
    ) -> Tuple[Dict[int, Tuple[List[ShardQueryOutcome], float]], int]:
        """Evaluate per-shard spec groups; returns (outputs, rebuilds)."""
        ordered = sorted(grouped.items())
        outputs: Dict[int, Tuple[List[ShardQueryOutcome], float]] = {}
        if self.backend == "process":
            with trace_span(
                "sharded.dispatch", backend="process", shards=len(ordered)
            ) as dispatch:
                pool = self._process_pool()
                descriptor = self._shared_descriptor()
                context = span_context()
                payloads = [
                    self._payload(self._states[shard], specs, descriptor, context)
                    for shard, specs in ordered
                ]
                started = {shard: time.perf_counter() for shard, _ in ordered}
                results = list(pool.map(run_shard_task, payloads))
                rebuilds = 0
                for (shard, _), result in zip(ordered, results):
                    if result.rebuilt:
                        rebuilds += 1
                    if result.spans is not None:
                        dispatch.adopt(Span.from_dict(result.spans))
                    seconds = time.perf_counter() - started[shard]
                    self._m_shard_seconds.observe(seconds)
                    outputs[shard] = (list(result.outcomes), seconds)
            self._m_rebuilds.inc(rebuilds)
            return outputs, rebuilds

        def run_local(item: Tuple[int, Tuple[QuerySpec, ...]]):
            shard, specs = item
            state = self._states[shard]
            begun = time.perf_counter()
            # Worker threads trace into a detached root the dispatcher
            # adopts after the join; spans opened inside nest under it on
            # the worker thread's own stack.
            span = detached_span("shard.local", shard=shard, queries=len(specs))
            with span:
                outcomes = evaluate_shard(
                    state.mod,
                    self._shard_engine(state),
                    specs,
                    state.coverage,
                    state.complete,
                )
            return shard, outcomes, time.perf_counter() - begun, span

        with trace_span(
            "sharded.dispatch", backend=self.backend, shards=len(ordered)
        ) as dispatch:
            if self.backend == "thread" and len(ordered) > 1:
                results = list(self._thread_pool().map(run_local, ordered))
            else:
                results = [run_local(item) for item in ordered]
            for shard, outcomes, seconds, span in results:
                dispatch.adopt(span)
                self._m_shard_seconds.observe(seconds)
                outputs[shard] = (outcomes, seconds)
        return outputs, 0

    def _fallback_engine(self) -> QueryEngine:
        if self._fallback is None:
            self._fallback = QueryEngine(
                self.mod,
                index=self._index_kind,
                leaf_capacity=self._leaf_capacity,
                grid_cells=self._grid_cells,
                cache_size=self._cache_size,
                registry=self.registry,
            )
        return self._fallback

    def _cache_key(
        self,
        query_id: object,
        t_start: float,
        t_end: float,
        width: float,
        variant: str,
        fraction: float,
    ) -> tuple:
        return (query_id, t_start, t_end, width, variant, fraction)

    def _cache_store(self, key: tuple, item: ShardedQueryAnswer) -> None:
        if self._answer_cache_size == 0:
            return
        self._answer_cache[key] = item
        while len(self._answer_cache) > self._answer_cache_size:
            self._answer_cache.popitem(last=False)

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
        """Answer a batch of UQ3x queries exactly, one shard per query.

        Queries are routed to their owning shards, evaluated there (in
        parallel across shards on the process/thread backends), and merged;
        any query failing its shard's safety check is transparently
        re-answered by the full-store fallback engine.  Queries identical
        to one already answered since the last store change are served from
        the parent-side answer cache without touching a shard.  Answers are
        byte-compatible with a single :class:`~repro.engine.QueryEngine`
        serving the same store.

        Args:
            query_ids: ids of the query trajectories (duplicates allowed).
            t_start: shared window start.
            t_end: shared window end.
            variant: ``"sometime"`` (UQ31), ``"always"`` (UQ32), or
                ``"fraction"`` (UQ33).
            fraction: minimum in-band fraction for ``"fraction"``.
            band_width: shared band width; the *full store's* per-query
                default (4r) when ``None``.
        """
        if t_end < t_start:
            raise ValueError(f"empty query window [{t_start}, {t_end}]")
        if variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {variant!r} (expected {VARIANTS})"
            )
        self._m_batches.inc()
        with trace_span(
            "sharded.answer_batch", queries=len(query_ids), variant=variant
        ) as batch_span:
            result = self._answer_batch_inner(
                query_ids, t_start, t_end, variant, fraction, band_width,
                batch_span,
            )
        self._m_batch_seconds.observe(result.total_seconds)
        return result

    def _answer_batch_inner(
        self,
        query_ids: Sequence[object],
        t_start: float,
        t_end: float,
        variant: str,
        fraction: float,
        band_width: Optional[float],
        batch_span,
    ) -> ShardedBatchResult:
        started = time.perf_counter()
        self._sync()
        unique_ids = list(dict.fromkeys(query_ids))
        for query_id in unique_ids:
            if query_id not in self.mod:
                raise KeyError(f"unknown query id {query_id!r}")

        merged: Dict[object, ShardedQueryAnswer] = {}
        batch_hits = 0
        grouped: Dict[int, List[QuerySpec]] = {}
        for query_id in unique_ids:
            width = (
                band_width
                if band_width is not None
                else self._default_band_width(query_id)
            )
            key = self._cache_key(
                query_id, t_start, t_end, width, variant, fraction
            )
            cached = self._answer_cache.get(key)
            if cached is not None:
                self._answer_cache.move_to_end(key)
                batch_hits += 1
                merged[query_id] = cached
                continue
            grouped.setdefault(self._owner[query_id], []).append(
                QuerySpec(
                    query_id=query_id,
                    t_start=t_start,
                    t_end=t_end,
                    band_width=width,
                    variant=variant,
                    fraction=fraction,
                )
            )
        self._m_cache_hits.inc(batch_hits)
        batch_span.set("cache_hits", batch_hits)
        outputs, rebuilds = (
            self._run_shards(
                {shard: tuple(specs) for shard, specs in grouped.items()}
            )
            if grouped
            else ({}, 0)
        )

        fallbacks = 0
        telemetry: List[ShardedBatchTelemetry] = []
        with trace_span("sharded.merge", shards=len(outputs)) as merge_span:
            for shard, (outcomes, seconds) in sorted(outputs.items()):
                telemetry.append(
                    ShardedBatchTelemetry(
                        shard=shard, queries=len(outcomes), seconds=seconds
                    )
                )
                for spec, outcome in zip(grouped[shard], outcomes):
                    if outcome.escaped:
                        begun = time.perf_counter()
                        answer = self._fallback_engine().answer(
                            spec.query_id,
                            t_start,
                            t_end,
                            variant=variant,
                            fraction=fraction,
                            band_width=spec.band_width,
                        )
                        self._m_fallback.inc()
                        fallbacks += 1
                        item = ShardedQueryAnswer(
                            query_id=spec.query_id,
                            answer=answer,
                            shard=shard,
                            via_fallback=True,
                            candidate_count=0,
                            corridor=outcome.corridor,
                            seconds=outcome.seconds
                            + (time.perf_counter() - begun),
                        )
                    else:
                        item = ShardedQueryAnswer(
                            query_id=spec.query_id,
                            answer=outcome.answer,
                            shard=shard,
                            via_fallback=False,
                            candidate_count=outcome.candidate_count,
                            corridor=outcome.corridor,
                            seconds=outcome.seconds,
                        )
                    merged[spec.query_id] = item
                    self._cache_store(
                        self._cache_key(
                            spec.query_id,
                            t_start,
                            t_end,
                            spec.band_width,
                            variant,
                            fraction,
                        ),
                        item,
                    )
            merge_span.set("fallbacks", fallbacks)
        batch_span.set("fallbacks", fallbacks)

        return ShardedBatchResult(
            results=[merged[query_id] for query_id in query_ids],
            total_seconds=time.perf_counter() - started,
            shard_telemetry=telemetry,
            cache_hits=batch_hits,
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
