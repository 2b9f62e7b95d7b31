"""Warm engine pool: one serving surface over single and sharded backends.

The service does not want to know whether a batch is best served by one
:class:`~repro.engine.QueryEngine` directly or split across the workers of
a :class:`~repro.parallel.ShardedEngine`; the pool owns that decision.  It
holds **one** :class:`QueryEngine` per store — the in-process sharded
backends serve from that same engine, so crossing ``shard_threshold`` never
cold-starts an index or a context cache — picks the backend per batch from
the store's current size, and exposes one ``answer_group`` call that
returns the same exact answers either way — the oracle tests pin both
backends byte-identical to direct engine calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..engine import QueryEngine
from ..engine.answers import Answer, answer_of, band_span
from ..obs.metrics import MetricsRegistry
from ..parallel import ShardedEngine
from ..trajectories.mod import MovingObjectsDatabase

#: Store size (object count) from which the sharded backend takes over.
DEFAULT_SHARD_THRESHOLD = 192


@dataclass(frozen=True, slots=True)
class GroupResult:
    """Answers of one coalesced batch plus which backend served it."""

    answers: Dict[object, Answer]
    backend: str


class EnginePool:
    """Lazily built, long-lived engines behind one ``answer_group`` call.

    Args:
        mod: the moving objects database every engine serves.
        shard_threshold: object count at which batches route to the sharded
            backend instead of the single engine.
        num_shards: most slices the sharded backend cuts a batch into.
        sharded_backend: worker backend of the sharded engine (``"thread"``
            by default: the service already runs evaluations off the event
            loop, and threads avoid per-request pickling).
        index: index kind for the engines (``"rtree"`` or ``"grid"``).
        max_workers: process-pool width of a ``"process"`` sharded backend.
        cache_size: context-cache capacity of the engine.
        force_backend: pin every batch to ``"single"`` or ``"sharded"``
            regardless of store size (``None`` sizes dynamically).
        mp_start_method: multiprocessing start method handed through to the
            sharded engine's process pool (``None`` keeps the engine's
            spawn-safe default; irrelevant for thread/serial backends).
        registry: the :class:`~repro.obs.MetricsRegistry` the pooled
            engines report into (``repro_engine_*`` / ``repro_sharded_*``);
            a private registry when ``None``.
    """

    def __init__(
        self,
        mod: MovingObjectsDatabase,
        *,
        shard_threshold: int = DEFAULT_SHARD_THRESHOLD,
        num_shards: int = 4,
        sharded_backend: str = "thread",
        index: Optional[str] = "rtree",
        max_workers: Optional[int] = None,
        cache_size: int = 1024,
        force_backend: Optional[str] = None,
        mp_start_method: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if shard_threshold < 1:
            raise ValueError("shard_threshold must be at least 1")
        if force_backend not in (None, "single", "sharded"):
            raise ValueError(
                f"unknown backend {force_backend!r} "
                "(expected 'single', 'sharded', or None)"
            )
        self.mod = mod
        self.shard_threshold = shard_threshold
        self._num_shards = num_shards
        self._sharded_backend = sharded_backend
        self._index = index
        self._max_workers = max_workers
        self._cache_size = cache_size
        self._force_backend = force_backend
        self._mp_start_method = mp_start_method
        self.registry = registry if registry is not None else MetricsRegistry()
        self._single: Optional[QueryEngine] = None
        self._sharded: Optional[ShardedEngine] = None

    # ------------------------------------------------------------------
    # Backend selection and access.
    # ------------------------------------------------------------------

    def backend_kind(self) -> str:
        """The backend the *next* batch will be served by."""
        if self._force_backend is not None:
            return self._force_backend
        return "sharded" if len(self.mod) >= self.shard_threshold else "single"

    def single_engine(self) -> QueryEngine:
        """The warm single-process engine (built on first use)."""
        if self._single is None:
            self._single = QueryEngine(
                self.mod,
                index=self._index,
                cache_size=self._cache_size,
                registry=self.registry,
            )
        return self._single

    def sharded_engine(self) -> ShardedEngine:
        """The warm sharded engine (built on first use).

        Its in-process backends serve from :meth:`single_engine`; only the
        process backend, whose engines live in its workers, gets none.
        """
        if self._sharded is None:
            self._sharded = ShardedEngine(
                self.mod,
                self._num_shards,
                backend=self._sharded_backend,
                index=self._index,
                max_workers=self._max_workers,
                cache_size=self._cache_size,
                mp_start_method=self._mp_start_method,
                registry=self.registry,
                engine=(
                    None
                    if self._sharded_backend == "process"
                    else self.single_engine()
                ),
            )
        return self._sharded

    def warm_up(self) -> str:
        """Build (and index) what the next batch will use; return its label.

        Lets the service pay index construction — and, for a process
        backend, pool spin-up plus the shared-memory export — at startup
        instead of on the first client request.
        """
        backend = self.backend_kind()
        if backend == "sharded":
            self.sharded_engine().warm_up()
        else:
            self.single_engine()
        return backend

    def close(self) -> None:
        """Shut down pooled engines (idempotent)."""
        if self._sharded is not None:
            self._sharded.close()
            self._sharded = None
        self._single = None

    def __enter__(self) -> "EnginePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Evaluation.
    # ------------------------------------------------------------------

    def answer_group(
        self,
        query_ids: Sequence[object],
        t_start: float,
        t_end: float,
        variant: str = "sometime",
        fraction: float = 0.0,
        band_width: Optional[float] = None,
    ) -> GroupResult:
        """Answer one coalesced batch exactly on the current best backend.

        The single path runs one :meth:`QueryEngine.prepare_batch` over the
        whole group and extracts each answer from its prepared context; the
        sharded path delegates to :meth:`ShardedEngine.answer_batch`.  Both
        produce answers byte-identical to per-query
        :meth:`QueryEngine.answer` calls.
        """
        backend = self.backend_kind()
        with band_span(
            self.registry, "pool.answer_group", backend=backend, queries=len(query_ids)
        ):
            if backend == "sharded":
                batch = self.sharded_engine().answer_batch(
                    query_ids,
                    t_start,
                    t_end,
                    variant=variant,
                    fraction=fraction,
                    band_width=band_width,
                )
                return GroupResult(answers=batch.answers, backend=backend)
            engine = self.single_engine()
            batch = engine.prepare_batch(
                query_ids, t_start, t_end, band_width=band_width
            )
            answers = {
                prepared.query_id: answer_of(prepared.context, variant, fraction)
                for prepared in batch
            }
            return GroupResult(answers=answers, backend=backend)
