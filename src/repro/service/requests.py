"""Request and response shapes of the :class:`~repro.service.QueryService`.

A request is a :class:`~repro.query_language.planner.PlannedStatement`:
any of the twelve UQ1x-UQ4x operators, frozen and hashable, so it is
coalesced by its ``group_key`` and, together with the MOD revision, keys
the result cache.  A :class:`QueryResponse` carries the exact answer plus
the serving telemetry a load test or dashboard wants: where the answer
came from, how large the coalesced batch was, and how long the request
queued and took.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..query_language.planner import PlannedStatement, StatementAnswer


def QueryRequest(
    query_id: object,
    t_start: float,
    t_end: float,
    variant: str = "sometime",
    fraction: float = 0.0,
    band_width: Optional[float] = None,
) -> PlannedStatement:
    """A UQ31/32/33 :class:`PlannedStatement`, in the old argument order.

    Kept only for the frozen end-to-end bench, which builds its requests
    as ``QueryRequest(query_id, t_start, t_end, variant, fraction)``;
    build a :class:`PlannedStatement` instead.
    """
    return PlannedStatement(query_id, t_start, t_end, band_width, variant, fraction)


@dataclass(frozen=True, slots=True)
class QueryResponse:
    """One served request: the exact answer plus serving telemetry.

    Attributes:
        request: the statement this response answers.
        answer: the statement's exact answer, ``==`` to its naive
            evaluation: the member -> non-zero-probability intervals map
            of a UQ1x/UQ3x statement, the member ids of a UQ2x/UQ4x one
            (:meth:`~repro.query_language.planner.PlanExecution.answer`).
        revision: MOD revision the answer was computed at (or served from
            cache for).
        backend: ``"single"`` (the pool's engine) or ``"cache"``.  Kept
            only for the frozen end-to-end bench, which prints it; use
            :attr:`from_cache` instead.
        batch_size: how many requests the serving engine batch coalesced
            (1 for cache hits).
        queue_seconds: time spent waiting in the admission queue.
        service_seconds: total submit-to-response wall clock.
    """

    request: PlannedStatement
    answer: StatementAnswer
    revision: int
    backend: str
    batch_size: int
    queue_seconds: float
    service_seconds: float

    @property
    def from_cache(self) -> bool:
        """Whether the answer was served from the result cache."""
        return self.backend == "cache"
