"""Synthetic service traffic: dashboard-style request schedules and replay.

The service layer's unit of load is not a query but a *traffic pattern*:
many concurrent dashboards refreshing standing UQ3x queries over a handful
of shared, slowly advancing windows, with a skewed popularity distribution
(a few hot vehicles dominate).  :func:`service_workload` generates exactly
that shape deterministically — discrete arrival *ticks*, each holding a
Poisson-sized burst of :class:`~repro.service.QueryRequest`s — and
:func:`replay` drives it through a running
:class:`~repro.service.QueryService`, gathering per-request telemetry into
a :class:`ReplayReport` (throughput, latency percentiles, cache and
coalescing behavior); ``examples/async_service.py`` is the walkthrough.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
)
from ..service.requests import QueryRequest, QueryResponse
from ..service.service import QueryService, ServiceOverloaded
from ..trajectories.mod import MovingObjectsDatabase
from .scenarios import multi_query_fleet

#: (variant, fraction) mix of dashboard traffic: mostly UQ31, some UQ32,
#: a few UQ33 half-window requests.
DEFAULT_VARIANT_MIX: Tuple[Tuple[str, float, float], ...] = (
    ("sometime", 0.0, 0.70),
    ("always", 0.0, 0.20),
    ("fraction", 0.5, 0.10),
)


@dataclass(frozen=True)
class ServiceWorkload:
    """A deterministic service traffic schedule over one fleet.

    Attributes:
        mod: the fleet store the requests run against.
        query_ids: the monitored vehicle ids requests draw from.
        ticks: arrival schedule — ``ticks[i]`` holds the requests arriving
            in burst ``i``; a replay submits each burst concurrently.
        tick_seconds: nominal real-time spacing of the bursts (used only
            when replaying at ``time_scale > 0``).
    """

    mod: MovingObjectsDatabase
    query_ids: List[object]
    ticks: List[List[QueryRequest]]
    tick_seconds: float

    @property
    def request_count(self) -> int:
        """Total scheduled requests."""
        return sum(len(tick) for tick in self.ticks)

    @property
    def unique_fingerprints(self) -> int:
        """Distinct request fingerprints (the cache's working-set size)."""
        return len(
            {request.fingerprint for tick in self.ticks for request in tick}
        )


def service_workload(
    num_vehicles: int = 60,
    num_queries: int = 12,
    ticks: int = 24,
    requests_per_tick: float = 8.0,
    tick_seconds: float = 0.05,
    window_minutes: float = 15.0,
    ticks_per_window_step: int = 6,
    variant_mix: Sequence[Tuple[str, float, float]] = DEFAULT_VARIANT_MIX,
    hot_fraction: float = 0.25,
    hot_weight: float = 4.0,
    seed: int = 43,
) -> ServiceWorkload:
    """Generate a dashboard-style request schedule over a city fleet.

    The fleet is :func:`~repro.workloads.scenarios.multi_query_fleet`; the
    schedule advances a shared sliding window every
    ``ticks_per_window_step`` ticks (so consecutive bursts repeat the same
    windows — the cache- and coalescing-friendly shape real dashboards
    produce), draws query ids from a skewed popularity distribution
    (``hot_fraction`` of the monitored vehicles get ``hot_weight``× the
    traffic), and mixes variants per ``variant_mix``.

    Args:
        num_vehicles: fleet size.
        num_queries: monitored vehicles requests draw from.
        ticks: number of arrival bursts.
        requests_per_tick: mean Poisson burst size (at least 1 request per
            tick is always scheduled, so the schedule never has dead ticks).
        tick_seconds: nominal burst spacing for paced replays.
        window_minutes: width of the sliding dashboard window.
        ticks_per_window_step: bursts sharing one window position before it
            advances.
        variant_mix: ``(variant, fraction, weight)`` triples.
        hot_fraction: fraction of query ids treated as hot.
        hot_weight: traffic multiplier of a hot id.
        seed: RNG seed (the schedule is fully deterministic).
    """
    if ticks < 1:
        raise ValueError("need at least one tick")
    if requests_per_tick <= 0:
        raise ValueError("requests_per_tick must be positive")
    if ticks_per_window_step < 1:
        raise ValueError("ticks_per_window_step must be at least 1")
    if not variant_mix:
        raise ValueError("variant_mix must not be empty")
    rng = np.random.default_rng(seed)
    mod, query_ids = multi_query_fleet(
        num_vehicles=num_vehicles, num_queries=num_queries, seed=seed
    )
    span_lo, span_hi = mod.common_time_span()
    window = min(window_minutes, span_hi - span_lo)

    # Popularity: the first hot_fraction of ids carry hot_weight× traffic.
    hot_count = max(1, int(round(hot_fraction * len(query_ids))))
    weights = np.array(
        [hot_weight if position < hot_count else 1.0
         for position in range(len(query_ids))]
    )
    weights = weights / weights.sum()

    variants = [(variant, fraction) for variant, fraction, _ in variant_mix]
    variant_weights = np.array([weight for _, _, weight in variant_mix])
    variant_weights = variant_weights / variant_weights.sum()

    # Window positions advance across the span in equal steps.
    steps = max(1, -(-ticks // ticks_per_window_step))  # ceil division
    max_start = span_hi - window - span_lo
    starts = [
        span_lo + (max_start * step / max(1, steps - 1) if steps > 1 else 0.0)
        for step in range(steps)
    ]

    schedule: List[List[QueryRequest]] = []
    for tick in range(ticks):
        t_start = starts[tick // ticks_per_window_step]
        t_end = t_start + window
        burst_size = max(1, int(rng.poisson(requests_per_tick)))
        burst: List[QueryRequest] = []
        for _ in range(burst_size):
            query_id = query_ids[int(rng.choice(len(query_ids), p=weights))]
            variant, fraction = variants[
                int(rng.choice(len(variants), p=variant_weights))
            ]
            burst.append(
                QueryRequest(
                    query_id=query_id,
                    t_start=t_start,
                    t_end=t_end,
                    variant=variant,
                    fraction=fraction,
                )
            )
        schedule.append(burst)
    return ServiceWorkload(
        mod=mod,
        query_ids=list(query_ids),
        ticks=schedule,
        tick_seconds=tick_seconds,
    )


@dataclass
class ReplayReport:
    """Telemetry of one replayed schedule."""

    responses: List[QueryResponse]
    rejected: int
    wall_seconds: float

    @property
    def served(self) -> int:
        """Requests that received an answer."""
        return len(self.responses)

    @property
    def requests_per_second(self) -> float:
        """Served requests over replay wall clock."""
        return self.served / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of served requests answered from the result cache."""
        if not self.responses:
            return 0.0
        hits = sum(1 for response in self.responses if response.from_cache)
        return hits / len(self.responses)

    @property
    def coalescing_factor(self) -> float:
        """Mean engine-batch size over engine-served (non-cache) responses."""
        engine_served = [r for r in self.responses if not r.from_cache]
        if not engine_served:
            return 0.0
        return sum(r.batch_size for r in engine_served) / len(engine_served)

    def latency_seconds(self) -> List[float]:
        """Per-request service latencies, submission order."""
        return [response.service_seconds for response in self.responses]

    def latency_percentile(self, percentile: float) -> float:
        """A latency percentile in seconds (0 when nothing was served)."""
        if not self.responses:
            return 0.0
        return float(np.percentile(self.latency_seconds(), percentile))

    @property
    def p95_latency(self) -> float:
        """95th-percentile service latency in seconds."""
        return self.latency_percentile(95)

    @property
    def p99_latency(self) -> float:
        """99th-percentile (tail) service latency in seconds."""
        return self.latency_percentile(99)

    def backend_counts(self) -> Dict[str, int]:
        """Served requests per backend (``cache`` / ``single``)."""
        counts: Dict[str, int] = {}
        for response in self.responses:
            counts[response.backend] = counts.get(response.backend, 0) + 1
        return counts


async def replay(
    service: QueryService,
    workload: ServiceWorkload,
    *,
    time_scale: float = 0.0,
    count_rejections: bool = True,
    registry: Optional[MetricsRegistry] = None,
) -> ReplayReport:
    """Drive a workload through a running service, burst by burst.

    Each tick's requests are submitted concurrently (``asyncio.gather``),
    which is what lets the service coalesce them; ``time_scale`` throttles
    the replay toward the schedule's nominal pacing (0 replays as fast as
    the service absorbs bursts, 1.0 sleeps out each tick's remainder of
    ``tick_seconds``).

    Args:
        service: a started :class:`~repro.service.QueryService`.
        workload: the schedule to drive.
        time_scale: pacing factor over ``workload.tick_seconds``.
        count_rejections: tolerate :class:`ServiceOverloaded` rejections and
            count them (``False`` re-raises, for tests that expect none).
        registry: record driver-side ``repro_replay_*`` metrics (burst sizes
            and latencies, rejections) into this registry; no metrics when
            ``None``.
    """
    metrics = registry if registry is not None else NULL_REGISTRY
    m_bursts = metrics.counter(
        "repro_replay_bursts_total", "Bursts driven through the service"
    )
    m_requests = metrics.counter(
        "repro_replay_requests_total", "Requests submitted by the driver"
    )
    m_rejections = metrics.counter(
        "repro_replay_rejections_total", "Requests the service rejected"
    )
    m_burst_seconds = metrics.histogram(
        "repro_replay_burst_seconds", help="Wall clock to absorb one burst"
    )
    m_burst_size = metrics.histogram(
        "repro_replay_burst_size",
        buckets=DEFAULT_SIZE_BUCKETS,
        help="Requests per burst",
    )
    responses: List[QueryResponse] = []
    rejected = 0
    started = time.perf_counter()
    for burst in workload.ticks:
        burst_started = time.perf_counter()
        m_bursts.inc()
        m_requests.inc(len(burst))
        m_burst_size.observe(len(burst))
        results = await asyncio.gather(
            *(service.submit(request) for request in burst),
            return_exceptions=True,
        )
        m_burst_seconds.observe(time.perf_counter() - burst_started)
        for result in results:
            if isinstance(result, ServiceOverloaded):
                if not count_rejections:
                    raise result
                rejected += 1
                m_rejections.inc()
            elif isinstance(result, BaseException):
                raise result
            else:
                responses.append(result)
        if time_scale > 0:
            remaining = (
                workload.tick_seconds * time_scale
                - (time.perf_counter() - burst_started)
            )
            if remaining > 0:
                await asyncio.sleep(remaining)
    return ReplayReport(
        responses=responses,
        rejected=rejected,
        wall_seconds=time.perf_counter() - started,
    )


def replay_sync(
    service_options: Optional[Dict] = None,
    workload: Optional[ServiceWorkload] = None,
    *,
    time_scale: float = 0.0,
) -> ReplayReport:
    """Convenience wrapper: build a service, replay a workload, tear down.

    Runs its own event loop, so callers (benchmarks, scripts) stay
    synchronous.  ``service_options`` are passed to
    :class:`~repro.service.QueryService`.
    """
    workload = workload if workload is not None else service_workload()

    async def _run() -> ReplayReport:
        async with QueryService(
            workload.mod, **(service_options or {})
        ) as service:
            return await replay(service, workload, time_scale=time_scale)

    return asyncio.run(_run())
