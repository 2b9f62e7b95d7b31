"""Warm engine pool: the service's one :class:`~repro.engine.QueryEngine`.

The pool holds **one** lazily built engine per store and exposes one
``answer_group`` call: a coalesced batch runs as one
:class:`~repro.query_language.planner.QueryPlan` (one
:meth:`~repro.engine.QueryEngine.prepare_batch` pass, then each
statement's answer read off its context).  Each service builds and
closes its own pool; :class:`~repro.parallel.ShardedEngine` is a pool
too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..core.queries import QueryContext
from ..engine import QueryEngine
from ..engine.answers import Answer, band_span
from ..obs.metrics import MetricsRegistry
from ..query_language.planner import PlannedStatement, plan_statements
from ..trajectories.mod import MovingObjectsDatabase


@dataclass(frozen=True, slots=True)
class GroupResult:
    """Answers of one coalesced batch, and their contexts, keyed by query id."""

    answers: Dict[object, Answer]
    contexts: Dict[object, QueryContext]


class EnginePool:
    """A lazily built, long-lived engine behind one ``answer_group`` call.

    Args:
        mod: the moving objects database the engine serves.
        registry: the :class:`~repro.obs.MetricsRegistry` the engine
            reports into (``repro_engine_*``); a private registry when
            ``None``.
    """

    def __init__(
        self,
        mod: MovingObjectsDatabase,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.mod = mod
        self.registry = registry if registry is not None else MetricsRegistry()
        self._engine: Optional[QueryEngine] = None

    def backend_kind(self) -> str:
        """Always ``"single"``: one engine serves every batch.

        The label of every engine-served response (cache hits read
        ``"cache"``).  Kept only for the frozen end-to-end bench, which
        still asks it which backend serves the next batch.
        """
        return "single"

    def single_engine(self) -> QueryEngine:
        """The warm engine (built, with its index, on first use).

        Kept public only for the frozen end-to-end bench; serving code
        reaches the engine through :meth:`answer_group` and :meth:`warm`.
        """
        if self._engine is None:
            self._engine = QueryEngine(self.mod, registry=self.registry)
        return self._engine

    def warm(
        self,
        query_ids: Sequence[object],
        t_start: float,
        t_end: float,
        band_width: Optional[float] = None,
    ) -> bool:
        """Whether :meth:`answer_group` would only read cached contexts.

        False until the engine is built, while a store change waits to be
        refreshed, and when any member's context is missing
        (:meth:`QueryEngine.warm`).  Builds nothing and moves no counter.
        """
        return self._engine is not None and self._engine.warm(
            query_ids, t_start, t_end, band_width
        )

    def warm_up(self) -> str:
        """Build (and index) the engine now; return its label.

        Lets the service pay index construction at startup instead of on
        the first client request.
        """
        self.single_engine()
        return self.backend_kind()

    def close(self) -> None:
        """Drop the engine (idempotent); the next batch rebuilds it."""
        self._engine = None

    def __enter__(self) -> "EnginePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def answer_group(
        self,
        query_ids: Sequence[object],
        t_start: float,
        t_end: float,
        variant: str = "sometime",
        fraction: float = 0.0,
        band_width: Optional[float] = None,
    ) -> GroupResult:
        """Answer one coalesced batch exactly.

        One UQ3x statement per query id, run as one plan; the answers are
        byte-identical to per-query :meth:`QueryEngine.answer` calls.
        """
        with band_span(self.registry, "pool.answer_group", queries=len(query_ids)):
            plan = plan_statements([
                PlannedStatement(
                    query_id, t_start, t_end, band_width, variant, fraction
                )
                for query_id in query_ids
            ])
            execution = plan.execute(self.single_engine())
            return GroupResult(
                answers=dict(zip(query_ids, execution.answers)),
                contexts=dict(zip(query_ids, execution.contexts)),
            )
