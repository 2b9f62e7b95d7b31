"""The continuous monitor: standing queries over a live update stream.

:class:`ContinuousMonitor` is the serving loop the paper's dispatcher story
implies: UQ-style queries stay *registered* while vans report new positions.
Each ingested batch is applied with delta semantics end to end:

1. only the reporting objects' trajectories are rebuilt (via their feeds)
   and swapped into the MOD as one ``upsert_many`` batch (one WAL write);
2. the store's index retires and re-appends just their boxes from their
   divergence times on, in one patch every engine over the store shares;
3. corridor-intersection against the changed objects decides which standing
   queries are affected — everything else keeps serving its cached context;
4. the standing queries run as one
   :class:`~repro.query_language.planner.QueryPlan` (those sharing a window
   and band width share one ``prepare_batch``), and the affected ones' old
   and new answers are diffed into typed :mod:`repro.streaming.events`
   deltas delivered to subscribers.

Answers reconstructed from the emitted deltas are exactly the answers a
from-scratch :class:`~repro.core.queries.QueryContext` computes on the final
MOD state (see :func:`reference_answer`), which the oracle tests assert.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.queries import QueryContext
from ..engine import QueryEngine
from ..engine.answers import VARIANTS as _VARIANTS
from ..engine.answers import answer_of
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import trace_span
from ..query_language.planner import PlannedStatement, plan_statements
from ..trajectories.mod import MovingObjectsDatabase
from ..trajectories.trajectory import UncertainTrajectory
from .events import Answer, AnswerDelta, diff_answers
from .ingest import DeadReckoningFeed, LocationFeed, StreamIngestor

__all__ = [
    "BatchReport",
    "ContinuousMonitor",
    "StandingQuery",
    "reference_answer",
]


@dataclass(frozen=True, slots=True)
class StandingQuery:
    """One registered continuous query.

    Attributes:
        key: monitor-assigned handle used in events and reports.
        query_id: id of the query trajectory (must stay stored in the MOD).
        variant: ``"sometime"`` (UQ31), ``"always"`` (UQ32), or
            ``"fraction"`` (UQ33).
        fraction: minimum in-band fraction for the ``"fraction"`` variant.
        window: fixed ``(start, end)`` window, or ``None``.
        sliding: sliding-window width trailing the fleet's common horizon,
            or ``None``.  With neither, the query spans the whole common
            time span.
        band_width: pruning band width; the MOD default (4r) when ``None``.
    """

    key: object
    query_id: object
    variant: str = "sometime"
    fraction: float = 0.0
    window: Optional[Tuple[float, float]] = None
    sliding: Optional[float] = None
    band_width: Optional[float] = None


@dataclass
class BatchReport:
    """Outcome of applying one ingested batch."""

    batch: int
    changed_ids: Tuple[object, ...]
    affected_queries: Tuple[object, ...]
    events: Tuple[AnswerDelta, ...]
    seconds: float


@dataclass
class _QueryState:
    window: Optional[Tuple[float, float]] = None
    answer: Answer = field(default_factory=dict)
    #: The exact context object the answer was derived from.  Identity (not
    #: cache-hit flags) decides whether a re-evaluation can be skipped: two
    #: standing queries can share one cache entry, and a context re-created
    #: this batch reports ``from_cache=True`` to the second query even
    #: though its predecessor was invalidated.
    context: Optional[QueryContext] = None
    evaluations: int = 0


class ContinuousMonitor:
    """Registers standing queries and maintains their answers under updates.

    Args:
        mod: the (non-empty) moving objects database to monitor.
        registry: the :class:`~repro.obs.MetricsRegistry` the monitor and
            its internal engine report into (``repro_monitor_*`` /
            ``repro_engine_*``); a private registry when ``None``.

    The internal engine's context cache holds 256 contexts, so unaffected
    standing queries keep hitting it while the live (query, window) pairs
    number no more than that.
    """

    def __init__(
        self,
        mod: MovingObjectsDatabase,
        *,
        registry: Optional[MetricsRegistry] = None,
    ):
        if len(mod) == 0:
            raise ValueError(
                "the monitor needs a non-empty MOD (seed it with the fleet's "
                "historical trajectories before registering queries)"
            )
        self.mod = mod
        self.registry = registry if registry is not None else MetricsRegistry()
        self.engine = QueryEngine(mod, registry=self.registry)
        self.ingestor = StreamIngestor()
        self._queries: Dict[object, StandingQuery] = {}
        self._states: Dict[object, _QueryState] = {}
        self._subscribers: List[Tuple[Optional[object], Callable[[AnswerDelta], None]]] = []
        self._batch = 0
        self._key_counter = 0
        self._m_batches = self.registry.counter(
            "repro_monitor_batches_total", "Update batches applied"
        )
        self._m_changed = self.registry.counter(
            "repro_monitor_changed_objects_total",
            "Trajectories rebuilt and swapped into the MOD",
        )
        self._m_evaluations = self.registry.counter(
            "repro_monitor_evaluations_total",
            "Standing-query answer recomputations",
        )
        self._m_deltas = self.registry.counter(
            "repro_monitor_deltas_total", "Delta events emitted to subscribers"
        )
        self._m_apply = self.registry.histogram(
            "repro_monitor_apply_seconds", help="End-to-end batch apply latency"
        )

    # ------------------------------------------------------------------
    # Standing queries and subscriptions.
    # ------------------------------------------------------------------

    @property
    def standing_queries(self) -> List[StandingQuery]:
        """Registered queries in registration order."""
        return list(self._queries.values())

    def register(
        self,
        query_id: object,
        *,
        window: Optional[Tuple[float, float]] = None,
        sliding: Optional[float] = None,
        variant: str = "sometime",
        fraction: Optional[float] = None,
        band_width: Optional[float] = None,
        key: Optional[object] = None,
    ) -> StandingQuery:
        """Register a standing query and evaluate it immediately.

        The initial evaluation emits one :class:`NeighborAppeared` per
        current answer-set member (so replaying the delta stream from empty
        reconstructs the full answer).

        Raises:
            KeyError: when the query trajectory is not stored, or the key is
                already taken.
            ValueError: on an unknown variant or inconsistent options.
        """
        if query_id not in self.mod:
            raise KeyError(f"query trajectory {query_id!r} is not stored in the MOD")
        if variant not in _VARIANTS:
            raise ValueError(f"unknown variant {variant!r} (expected {_VARIANTS})")
        if variant == "fraction":
            if fraction is None or not 0.0 <= fraction <= 1.0:
                raise ValueError("the 'fraction' variant needs a fraction in [0, 1]")
        elif fraction is not None:
            raise ValueError("fraction is only meaningful for the 'fraction' variant")
        if window is not None and sliding is not None:
            raise ValueError("a query is either fixed-window or sliding, not both")
        if window is not None and window[1] < window[0]:
            raise ValueError(f"empty fixed window {window}")
        if sliding is not None and sliding <= 0:
            raise ValueError("the sliding width must be positive")
        if key is None:
            key = f"q{self._key_counter}"
            self._key_counter += 1
        if key in self._queries:
            raise KeyError(f"standing-query key {key!r} already registered")
        standing = StandingQuery(
            key=key,
            query_id=query_id,
            variant=variant,
            fraction=fraction if fraction is not None else 0.0,
            window=window,
            sliding=sliding,
            band_width=band_width,
        )
        self._queries[key] = standing
        self._states[key] = _QueryState()
        try:
            (events,) = self._evaluate([standing], self._batch, force=True)
        except Exception:
            # A failed initial evaluation (e.g. no candidate trajectories)
            # must not leave a half-registered query poisoning apply().
            del self._queries[key]
            del self._states[key]
            raise
        self._dispatch(events)
        return standing

    def unregister(self, key: object) -> StandingQuery:
        """Drop a standing query; its cached contexts age out of the LRU."""
        if key not in self._queries:
            raise KeyError(f"unknown standing-query key {key!r}")
        self._states.pop(key)
        return self._queries.pop(key)

    def subscribe(
        self,
        callback: Callable[[AnswerDelta], None],
        query_key: Optional[object] = None,
    ) -> Callable[[], None]:
        """Deliver future delta events to ``callback``; returns an unsubscriber.

        Args:
            callback: called once per event, in emission order.
            query_key: restrict delivery to one standing query.
        """
        entry = (query_key, callback)
        self._subscribers.append(entry)

        def unsubscribe() -> None:
            if entry in self._subscribers:
                self._subscribers.remove(entry)

        return unsubscribe

    def answers(self, key: object) -> Answer:
        """The current answer of one standing query (a copy)."""
        if key not in self._states:
            raise KeyError(f"unknown standing-query key {key!r}")
        return dict(self._states[key].answer)

    def resolve_window(self, key: object) -> Optional[Tuple[float, float]]:
        """The window a standing query currently evaluates over.

        ``None`` when the query is dormant: its fixed window does not
        intersect the fleet's common time span, or its query trajectory was
        removed from the MOD.
        """
        if key not in self._queries:
            raise KeyError(f"unknown standing-query key {key!r}")
        return self._windows([self._queries[key]])[0]

    def evaluation_count(self, key: object) -> int:
        """How many times the query's answer was actually recomputed."""
        if key not in self._states:
            raise KeyError(f"unknown standing-query key {key!r}")
        return self._states[key].evaluations

    # ------------------------------------------------------------------
    # Ingestion.
    # ------------------------------------------------------------------

    def track(
        self,
        object_id: object,
        *,
        max_speed: Optional[float] = None,
        d_max: Optional[float] = None,
        minimum_radius: float = 1e-3,
    ):
        """Open an update feed for an object, seeded from its stored motion.

        Exactly one of ``max_speed`` (location-update discipline) and
        ``d_max`` (dead reckoning) must be given.
        """
        if (max_speed is None) == (d_max is None):
            raise ValueError("pass exactly one of max_speed and d_max")
        seed = self.mod.get(object_id) if object_id in self.mod else None
        if max_speed is not None:
            return self.ingestor.location_feed(
                object_id, max_speed, minimum_radius, seed=seed
            )
        return self.ingestor.dead_reckoning_feed(object_id, d_max, seed=seed)

    def ingest(self, object_id: object, reports: Iterable) -> None:
        """Buffer reports for one tracked object (applied on :meth:`apply`)."""
        feed = self.ingestor.feed(object_id)
        feed.push_all(reports)

    # ------------------------------------------------------------------
    # Batch application.
    # ------------------------------------------------------------------

    def apply(
        self,
        trajectories: Optional[Iterable[UncertainTrajectory]] = None,
        end_time: Optional[float] = None,
    ) -> BatchReport:
        """Apply one batch: buffered feed updates plus optional trajectories.

        Args:
            trajectories: extra full trajectories to upsert alongside the
                feeds' output (useful for tests and replay tooling).
            end_time: extrapolation horizon for dead-reckoning feeds.

        Returns:
            A :class:`BatchReport` with the changed objects, the standing
            queries that were re-evaluated, and the emitted delta events.
        """
        started = time.perf_counter()
        self._batch += 1
        self._m_batches.inc()
        with trace_span("monitor.apply", batch=self._batch) as span:
            changed = self.ingestor.build_dirty(end_time=end_time)
            for trajectory in trajectories or ():
                changed[trajectory.object_id] = trajectory
            with trace_span("monitor.upsert", changed=len(changed)):
                self.mod.upsert_many(changed.values())
            self._m_changed.inc(len(changed))

            affected: List[object] = []
            events: List[AnswerDelta] = []
            standings = list(self._queries.values())
            with trace_span("monitor.evaluate", queries=len(standings)):
                for standing, emitted in zip(
                    standings, self._evaluate(standings, self._batch)
                ):
                    if emitted is not None:
                        affected.append(standing.key)
                        events.extend(emitted)
            self._m_deltas.inc(len(events))
            span.set("changed", len(changed))
            span.set("affected", len(affected))
            span.set("deltas", len(events))
            self._dispatch(events)
        seconds = time.perf_counter() - started
        self._m_apply.observe(seconds)
        return BatchReport(
            batch=self._batch,
            changed_ids=tuple(sorted(changed.keys(), key=str)),
            affected_queries=tuple(affected),
            events=tuple(events),
            seconds=seconds,
        )

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _windows(self, standings: List[StandingQuery]) -> List[Optional[Tuple[float, float]]]:
        """The queries' current windows, from one scan of the fleet's span.

        ``None`` marks a dormant query: its fixed window misses the span, or
        its query trajectory was removed (it revives if the object returns).
        """
        stored = [standing.query_id in self.mod for standing in standings]
        span_lo, span_hi = self.mod.common_time_span() if any(stored) else (0.0, 0.0)
        windows: List[Optional[Tuple[float, float]]] = []
        for standing, present in zip(standings, stored):
            lo, hi = span_lo, span_hi
            if standing.window is not None:
                lo, hi = max(standing.window[0], lo), min(standing.window[1], hi)
            elif standing.sliding is not None:
                lo = max(lo, hi - standing.sliding)
            windows.append((lo, hi) if present and lo <= hi else None)
        return windows

    def _evaluate(
        self, standings: List[StandingQuery], batch: int, force: bool = False
    ) -> List[Optional[List[AnswerDelta]]]:
        """Per query, its deltas, or None when provably untouched.

        The live (non-dormant) queries run as one plan.  When it serves the
        *identical* context object a query's answer was derived from, over
        an unchanged window, that context survived the engine's
        corridor-intersection checks against every changed object, so the
        answer is neither extracted nor diffed.  (Identity, not
        ``from_cache``: a re-created cache entry can serve a second standing
        query "from cache" within the same batch.)
        """
        windows = self._windows(standings)
        live = [
            position for position, window in enumerate(windows) if window is not None
        ]
        execution = plan_statements([
            PlannedStatement(
                standings[position].query_id,
                *windows[position],
                band_width=standings[position].band_width,
                variant=standings[position].variant,
                fraction=standings[position].fraction,
            )
            for position in live
        ]).execute(self.engine)
        slots = {position: slot for slot, position in enumerate(live)}
        deltas: List[Optional[List[AnswerDelta]]] = []
        for position, (standing, window) in enumerate(zip(standings, windows)):
            slot = slots.get(position)
            state = self._states[standing.key]
            context = None if slot is None else execution.contexts[slot]
            if context is state.context and state.window == window and not force:
                deltas.append(None)
                continue
            answer: Answer = {} if slot is None else execution.answer(slot)
            state.evaluations += 1
            self._m_evaluations.inc()
            deltas.append(
                diff_answers(state.answer, answer, standing.key, standing.query_id, batch)
            )
            if state.window is not None and state.window != window:
                # The old window will never be asked for again; free its slot.
                self.engine.discard_context(
                    standing.query_id, *state.window, band_width=standing.band_width
                )
            state.window, state.answer, state.context = window, answer, context
        return deltas

    def _dispatch(self, events: List[AnswerDelta]) -> None:
        for event in events:
            for query_key, callback in list(self._subscribers):
                if query_key is None or query_key == event.query_key:
                    callback(event)


def reference_answer(
    mod: MovingObjectsDatabase,
    query_id: object,
    t_lo: float,
    t_hi: float,
    variant: str = "sometime",
    fraction: float = 0.0,
    band_width: Optional[float] = None,
) -> Answer:
    """From-scratch oracle answer over the current MOD state.

    Builds an unfiltered :class:`QueryContext` (every stored candidate, no
    index, no cache) and extracts the same answer shape the monitor
    maintains — the yardstick the correctness tests compare delta-replayed
    answers against.
    """
    context = QueryContext.from_mod(mod, query_id, t_lo, t_hi, band_width=band_width)
    return answer_of(context, variant, fraction)
