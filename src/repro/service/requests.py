"""Typed request/response shapes of the :class:`~repro.service.QueryService`.

A :class:`QueryRequest` names one UQ3x evaluation — query id, window,
variant, and band width — in a frozen dataclass so requests can be hashed,
coalesced, and used (together with the MOD revision) as result-cache keys.
A :class:`QueryResponse` carries the exact answer plus the serving
telemetry a load test or dashboard wants: where the answer came from, how
large the coalesced batch was, and how long the request queued and took.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..engine.answers import VARIANTS, Answer

#: Hashable identity of a request's *semantics* (everything that determines
#: its answer except the database state).  Together with the MOD revision it
#: keys the service's result cache.
Fingerprint = Tuple[object, float, float, str, float, Optional[float]]


@dataclass(frozen=True, slots=True)
class QueryRequest:
    """One UQ31/32/33 evaluation request.

    Attributes:
        query_id: id of the query trajectory (must be stored in the MOD).
        t_start: query window start.
        t_end: query window end.
        variant: ``"sometime"`` (UQ31), ``"always"`` (UQ32), or
            ``"fraction"`` (UQ33).
        fraction: minimum in-band time fraction for the ``"fraction"``
            variant; must stay 0 for the other variants.
        band_width: pruning band width, or ``None`` for the MOD's per-query
            default (4r).
    """

    query_id: object
    t_start: float
    t_end: float
    variant: str = "sometime"
    fraction: float = 0.0
    band_width: Optional[float] = None

    def __post_init__(self) -> None:
        if self.t_end < self.t_start:
            raise ValueError(
                f"empty query window [{self.t_start}, {self.t_end}]"
            )
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r} (expected {VARIANTS})"
            )
        if self.variant == "fraction":
            if not 0.0 <= self.fraction <= 1.0:
                raise ValueError("fraction must lie in [0, 1]")
        elif self.fraction != 0.0:
            raise ValueError(
                "fraction is only meaningful for the 'fraction' variant"
            )
        if self.band_width is not None and self.band_width <= 0.0:
            raise ValueError("band_width must be positive")

    @property
    def fingerprint(self) -> Fingerprint:
        """The request's cache identity (hashable, revision-free)."""
        return (
            self.query_id,
            self.t_start,
            self.t_end,
            self.variant,
            self.fraction,
            self.band_width,
        )

    @property
    def group_key(self) -> Tuple[float, float, str, float, Optional[float]]:
        """Coalescing key: requests sharing it can run in one engine batch."""
        return (
            self.t_start,
            self.t_end,
            self.variant,
            self.fraction,
            self.band_width,
        )


@dataclass(frozen=True, slots=True)
class QueryResponse:
    """One served request: the exact answer plus serving telemetry.

    Attributes:
        request: the request this response answers.
        answer: the exact UQ3x answer (member id -> non-zero-probability
            intervals), byte-identical to a direct
            :meth:`repro.engine.QueryEngine.answer` call.
        revision: MOD revision the answer was computed at (or served from
            cache for).
        backend: ``"single"`` (the pool's engine) or ``"cache"``.
        batch_size: how many requests the serving engine batch coalesced
            (1 for cache hits).
        queue_seconds: time spent waiting in the admission queue.
        service_seconds: total submit-to-response wall clock.
    """

    request: QueryRequest
    answer: Answer
    revision: int
    backend: str
    batch_size: int
    queue_seconds: float
    service_seconds: float

    @property
    def from_cache(self) -> bool:
        """Whether the answer was served from the result cache."""
        return self.backend == "cache"
