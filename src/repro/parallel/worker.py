"""Slice evaluation, shared by every backend, and the process-pool entry point.

A *slice* is a contiguous run of a batch's unique query ids.  Whoever
evaluates it — the parent's own engine (``"serial"`` / ``"thread"``) or a
worker process — runs it against the **whole** store as one
:class:`~repro.query_language.planner.QueryPlan`, so a slice's answers are
the single engine's answers and nothing about them depends on how the
batch was cut.

:func:`run_shard_task` is the :class:`~concurrent.futures.ProcessPoolExecutor`
entry point.  A :class:`ShardTask` carries no trajectories: it names the
parent's :class:`~repro.trajectories.shared.SharedPackDescriptor`, and the
worker attaches the segments, rebuilds lightweight trajectory shells over
zero-copy column views in the parent's insertion order, and keeps the
resulting engine until the descriptor's revision moves.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine import QueryEngine
from ..engine.answers import Answer
from ..obs.logging import get_logger
from ..obs.tracing import capture, trace_span
from ..query_language.planner import PlannedStatement, plan_statements
from ..trajectories.shared import AttachedPack, SharedPackDescriptor

_log = get_logger("parallel.worker")


@dataclass(frozen=True, slots=True)
class ShardedQueryAnswer:
    """One query's result.

    Attributes:
        query_id: the query trajectory id.
        answer: the exact UQ3x answer (member -> non-zero intervals).
        shard: index of the batch slice that evaluated it.
        candidate_count: candidates that entered envelope construction.
    """

    query_id: object
    answer: Answer
    shard: int
    candidate_count: int


@dataclass(frozen=True)
class ShardTask:
    """Picklable payload: which store to serve from, and one slice of a batch.

    Attributes:
        token: identity of the dispatching engine instance, so a worker
            keeps one rebuilt engine per :class:`ShardedEngine`.
        shard: slice index (a span/telemetry label only).
        store: descriptor of the parent's shared column export; its
            ``revision`` is what a worker compares its cached engine to.
        queries: ``(query id, band width)`` pairs.  Widths are resolved by
            the *parent*: the default is a maximum over every stored pdf,
            and workers rebuild trajectories without their pdfs.  Empty for
            a warm-up task.
        t_start, t_end, variant, fraction: the batch's shared window and
            UQ3x variant.
        span_context: compact tracing context of the dispatching span
            (:func:`repro.obs.tracing.span_context`); ``None`` means the
            parent is not tracing and the worker records no spans.
    """

    token: Tuple[int, ...]
    shard: int
    store: SharedPackDescriptor
    cache_size: int
    queries: Tuple[Tuple[object, float], ...] = ()
    t_start: float = 0.0
    t_end: float = 0.0
    variant: str = "sometime"
    fraction: float = 0.0
    span_context: Optional[Tuple[str, float]] = None


@dataclass(frozen=True, slots=True)
class ShardTaskResult:
    """One task's outcomes plus worker-cache telemetry.

    Attributes:
        outcomes: per-query results, in task order.
        rebuilt: the worker held no engine for this store revision (cold
            worker, or the store changed) and rebuilt it from the shared
            segments — once per worker per revision, never at steady state.
        revision: the shared-export revision the serving engine was built
            from.
        rebuild_seconds: attach + index time when ``rebuilt``, else 0.
        spans: serialized worker span tree (:meth:`repro.obs.Span.to_dict`)
            when the task carried a ``span_context``; the parent rebuilds
            and adopts it under its dispatch span.
    """

    outcomes: Tuple[ShardedQueryAnswer, ...]
    rebuilt: bool
    revision: int
    rebuild_seconds: float = 0.0
    spans: Optional[Dict] = None


def answer_slice(
    engine: QueryEngine,
    shard: int,
    queries: Sequence[Tuple[object, Optional[float]]],
    t_start: float,
    t_end: float,
    variant: str,
    fraction: float,
) -> List[ShardedQueryAnswer]:
    """Slice ``shard``'s ``(query id, band width)`` pairs, run as one plan."""
    execution = plan_statements([
        PlannedStatement(query_id, t_start, t_end, width, variant, fraction)
        for query_id, width in queries
    ]).execute(engine)
    return [
        ShardedQueryAnswer(query_id, answer, shard, len(context.functions))
        for (query_id, _), context, answer in zip(
            queries, execution.contexts, execution.answers
        )
    ]


@dataclass
class _CachedEngine:
    """A worker's engine over one revision of one parent store."""

    engine: QueryEngine
    #: The attachment the engine's zero-copy column views point into; its
    #: revision is the one the engine serves.
    pack: AttachedPack


#: Per-worker-process engines, one per dispatching :class:`ShardedEngine`
#: instance, evicted LRU so a long-lived worker serving many instances does
#: not hoard every store it has ever attached.
_ENGINE_CACHE: "OrderedDict[Tuple[int, ...], _CachedEngine]" = OrderedDict()
_ENGINE_CACHE_LIMIT = 4


def run_shard_task(task: ShardTask) -> ShardTaskResult:
    """Process-pool entry point: attach (or reuse) the store, evaluate a slice.

    A task carrying a ``span_context`` is evaluated under a private tracing
    capture: the worker's attach/evaluate spans come back serialized in
    :attr:`ShardTaskResult.spans` for the parent to stitch under its
    dispatch span.
    """
    if task.span_context is None:
        return _serve_task(task)
    with capture() as recorder:
        with trace_span("shard.worker", shard=task.shard, queries=len(task.queries)):
            result = _serve_task(task)
        root = recorder.latest()
    return replace(result, spans=root.to_dict() if root is not None else None)


def _serve_task(task: ShardTask) -> ShardTaskResult:
    """Resolve this store revision's engine (rebuilding on a miss), evaluate."""
    cached = _ENGINE_CACHE.get(task.token)
    rebuild_seconds = 0.0
    rebuilt = cached is None or cached.pack.revision != task.store.revision
    if rebuilt:
        started = time.perf_counter()
        with trace_span(
            "shard.attach",
            shard=task.shard,
            reason="cold" if cached is None else "revision",
        ) as span:
            pack = AttachedPack(task.store)
            # pack.ids is the parent's insertion order, which keeps every
            # order-sensitive kernel byte-identical to the parent's engine.
            mod = pack.member_database(pack.ids)
            span.set("members", len(mod))
            cached = _CachedEngine(
                engine=QueryEngine(mod, cache_size=task.cache_size),
                pack=pack,
            )
        _ENGINE_CACHE[task.token] = cached
        rebuild_seconds = time.perf_counter() - started
        _log.debug(
            "rebuilt engine %s at revision %d (%d members, %.1f ms)",
            task.token, pack.revision, len(mod), rebuild_seconds * 1e3,
        )
    _ENGINE_CACHE.move_to_end(task.token)
    while len(_ENGINE_CACHE) > _ENGINE_CACHE_LIMIT:
        evicted, _ = _ENGINE_CACHE.popitem(last=False)
        _log.debug("evicted engine %s from worker cache", evicted)

    with trace_span("shard.evaluate", queries=len(task.queries)):
        outcomes = answer_slice(
            cached.engine, task.shard, task.queries, task.t_start, task.t_end,
            task.variant, task.fraction,
        )
    return ShardTaskResult(
        outcomes=tuple(outcomes),
        rebuilt=rebuilt,
        revision=cached.pack.revision,
        rebuild_seconds=rebuild_seconds,
    )
