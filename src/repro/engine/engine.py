"""The batched multi-query engine.

:class:`QueryEngine` is the serving-side counterpart of one
:meth:`~repro.core.queries.QueryContext.from_mod` per query.  It
amortizes the costs a production deployment pays once per *database* rather
than once per *query*:

* the spatio-temporal index is the store's own segment box table
  (:meth:`~repro.trajectories.mod.MovingObjectsDatabase.index`), shared by
  every query and every engine the store serves;
* each query's candidate set is shrunk by a provably safe corridor probe
  (:mod:`repro.engine.filtering`), one table scan per batch, before the
  O(N log N) difference-function and envelope construction runs;
* a batch of query ids is prepared in stages, every stage but the kinetic
  front one pass over the whole batch: corridor radii, difference
  functions, and the 4r-band refinement;
* prepared :class:`~repro.core.queries.QueryContext`s are memoized in an
  LRU cache keyed by (query id, window, band width), so re-evaluating a
  continuous query on a refreshed dashboard is a dictionary lookup.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.pruning import band_intervals_many
from ..core.queries import QueryContext
from ..geometry.envelope.bulk import front_report, front_tally
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import trace_span
from ..trajectories.mod import MovingObjectsDatabase
from .answers import Answer, answer_of, band_span
from .cache import CacheInfo, ContextCache, context_key
from .filtering import corridor_probe_bulk, filter_candidates


@dataclass(frozen=True, slots=True)
class PreparedQuery:
    """One query's prepared context plus the preparation telemetry.

    Attributes:
        query_id: id of the query trajectory.
        context: the prepared :class:`QueryContext`.
        candidate_count: candidates that entered envelope construction.
        total_candidates: stored objects other than the query.
        corridor_radius: index probe radius used (``None`` for a cached
            context or a zero-length window, which is not filtered).
        from_cache: whether the context came from the LRU cache.
        prepare_seconds: wall-clock preparation time for this query.
    """

    query_id: object
    context: QueryContext
    candidate_count: int
    total_candidates: int
    corridor_radius: Optional[float]
    from_cache: bool
    prepare_seconds: float

    @property
    def filter_ratio(self) -> float:
        """Fraction of candidates removed by the index filter."""
        if self.total_candidates == 0:
            return 0.0
        return 1.0 - self.candidate_count / self.total_candidates

    def band_pruning_ratio(self) -> float:
        """Fraction of the *filtered* candidates pruned by the 4r band."""
        return self.context.pruning_statistics().pruning_ratio


@dataclass
class BatchResult:
    """Outcome of preparing one batch of queries."""

    prepared: List[PreparedQuery]
    total_seconds: float
    #: The store revision the engine synced to before preparing the batch.
    revision: int

    def __iter__(self):
        return iter(self.prepared)

    def __len__(self) -> int:
        return len(self.prepared)

    @property
    def contexts(self) -> Dict[object, QueryContext]:
        """Prepared contexts keyed by query id."""
        return {item.query_id: item.context for item in self.prepared}

    @property
    def mean_prepare_seconds(self) -> float:
        """Mean per-query preparation time."""
        if not self.prepared:
            return 0.0
        return sum(item.prepare_seconds for item in self.prepared) / len(self.prepared)

    @property
    def mean_filter_ratio(self) -> float:
        """Mean fraction of candidates removed by the index filter."""
        if not self.prepared:
            return 0.0
        return sum(item.filter_ratio for item in self.prepared) / len(self.prepared)

    def mean_band_pruning_ratio(self) -> float:
        """Mean 4r-band pruning ratio over the batch (triggers band pruning)."""
        if not self.prepared:
            return 0.0
        return sum(item.band_pruning_ratio() for item in self.prepared) / len(
            self.prepared
        )


class QueryEngine:
    """Prepares and serves batches of continuous probabilistic NN queries.

    Args:
        mod: the moving objects database to serve queries against; every
            query's candidates are filtered through its box table
            (:meth:`~repro.trajectories.mod.MovingObjectsDatabase.index`).
        registry: the :class:`~repro.obs.MetricsRegistry` engine metrics
            land in (``repro_engine_*``); a private registry when ``None``,
            so independent engines never mix counters.

    The LRU context cache holds 256 contexts (:class:`ContextCache`'s
    default): twice the 128 that the busiest end-to-end workload,
    ``dash_refresh``, re-hits.
    """

    def __init__(
        self,
        mod: MovingObjectsDatabase,
        *,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.mod = mod
        self._cache = ContextCache()
        self._mod_revision = mod.revision
        #: (revision, ids, window, band width, widths, keys) of the last warm check.
        self._warm_keys: tuple = ()
        # Instruments are resolved once here; the hot paths below touch
        # them with plain attribute calls only (no registry lookups).
        self.registry = registry if registry is not None else MetricsRegistry()
        self._m_cache_hits = self.registry.counter(
            "repro_engine_cache_hits_total", "Context-cache hits"
        )
        self._m_cache_misses = self.registry.counter(
            "repro_engine_cache_misses_total", "Context-cache misses (builds)"
        )
        self._m_prepare = self.registry.histogram(
            "repro_engine_prepare_seconds",
            help="Per-query uncached preparation time",
        )
        self._m_batch = self.registry.histogram(
            "repro_engine_batch_seconds", help="prepare_batch wall time"
        )
        self._m_corridor = self.registry.histogram(
            "repro_engine_corridor_seconds",
            help="Index probe + corridor filter stage time",
        )
        self._m_kernel = self.registry.histogram(
            "repro_engine_kernel_seconds",
            help="Band-interval kernel (envelope construction) stage time",
        )
        self._m_difference_fallbacks = self.registry.counter(
            "repro_engine_difference_fallback_candidates_total",
            "Candidates whose difference function took the scalar fallback",
        )
        self._m_slabs = {
            kind: self.registry.counter(
                "repro_geometry_envelope_slabs_total",
                "Slabs of envelope windows served by the kinetic front (clean) "
                "or handed to the scalar algorithm (dirty)",
                kind=kind,
            )
            for kind in ("clean", "dirty")
        }
        self._m_refreshes = self.registry.counter(
            "repro_engine_refresh_total", "Derived-state refreshes after MOD changes"
        )
        self._m_index_build = self.registry.histogram(
            "repro_engine_index_build_seconds",
            help="Bulk (re)load time of the store's index, when this engine paid it",
        )
        self._sync_index()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def index(self):
        """The store's box table every query's candidates are filtered through."""
        return self._index

    def cache_info(self) -> CacheInfo:
        """Hit/miss counters of the context cache."""
        return self._cache.info()

    def invalidate(self, query_id: object) -> int:
        """Drop cached contexts of one query (e.g. after a trajectory update)."""
        return self._cache.invalidate(query_id)

    def discard_context(
        self,
        query_id: object,
        t_start: float,
        t_end: float,
        band_width: Optional[float] = None,
    ) -> bool:
        """Drop one cached context a caller knows it will never ask for again.

        Standing sliding-window queries supersede a cache entry every time
        their window advances; discarding eagerly keeps dead contexts from
        occupying the LRU and from being rescanned by selective
        invalidation.  Best effort: returns False when no such entry exists
        (e.g. the default band width shifted since it was stored).
        """
        if band_width is None:
            try:
                band_width = self.mod.default_band_width(query_id)
            except (KeyError, ValueError):
                return False
        return self._cache.discard(
            context_key(query_id, t_start, t_end, band_width)
        )

    def warm(
        self,
        query_ids: Sequence[object],
        t_start: float,
        t_end: float,
        band_width: Optional[float] = None,
    ) -> bool:
        """Whether a batch would be served from cache with nothing to refresh.

        True when this engine is synced to the store's revision and every
        member's context is cached.  An unknown id, or a store with no
        candidate, reads as not warm.  Reads only: the LRU order and the
        hit and miss counters do not move.  A warm check's keys serve a
        :meth:`prepare_batch` of the same batch at the same revision.
        """
        revision = self._mod_revision
        if revision != self.mod.revision:
            return False
        try:
            widths, keys = self._keys(query_ids, t_start, t_end, band_width)
        except (KeyError, ValueError):
            return False
        if not all(key in self._cache for key in keys):
            return False
        self._warm_keys = (revision, query_ids, t_start, t_end, band_width, widths, keys)
        return True

    def _keys(self, query_ids, t_start, t_end, band_width) -> Tuple[List[float], List[Tuple]]:
        """Each member's band width and context-cache key, in order."""
        widths = [
            self.mod.default_band_width(query_id) if band_width is None else band_width
            for query_id in query_ids
        ]
        return widths, [context_key(q, t_start, t_end, w) for q, w in zip(query_ids, widths)]

    def refresh(self) -> int:
        """Resynchronize derived state when the MOD contents changed.

        Every serving call starts with this; callers that want to pay for a
        store change eagerly (right after a streaming ``apply``) call it
        themselves.  The index is the store's own: the first engine to ask
        after a change patches it in place for every engine over the store
        (:meth:`~repro.trajectories.mod.MovingObjectsDatabase.sync_index`).
        The index is synced first, because invalidation scans it: of the
        cached contexts, only those a changed object can actually affect are
        invalidated (the query itself changed, a changed object was among
        the context's candidates, or the table's rows of a changed object
        now meet the context's provably-safe corridor); everything else
        keeps serving from cache.  When the changelog cannot identify the
        changes, the caches start over.  Returns the revision synced to.
        """
        # Read first: a change landing after the changelog read is then
        # still unseen, and the next refresh processes it.
        revision = self.mod.revision
        if revision == self._mod_revision:
            return revision
        changed = self.mod.divergences_since(self._mod_revision)
        with trace_span(
            "engine.refresh",
            kind="incremental" if changed is not None else "full",
            changed=len(changed) if changed is not None else len(self.mod),
        ) as span:
            span.set("index", self._sync_index())
            if changed is None:
                self._cache = ContextCache()
            else:
                self._invalidate_affected(changed)
            span.set("entries", len(self._index))
        self._m_refreshes.inc()
        self._mod_revision = revision
        return revision

    def _sync_index(self) -> str:
        """Sync to the store's index and say what that did to it."""
        self._index, action, seconds = self.mod.sync_index()
        if action == "bulk":
            self._m_index_build.observe(seconds)
        return action

    def _invalidate_affected(self, changed: Dict[object, Optional[float]]) -> None:
        """Drop exactly the cached contexts a changed object can affect.

        A surviving context is answer-equivalent to a fresh preparation:
        corridor filtering is exact (dropped candidates can neither enter the
        band nor shape the envelope), so a context stays valid unless a
        change that diverges inside its window hit its query, one of its
        candidates, or an object the filter of a fresh build would now keep.
        That filter is the synced box table's: one ``probe`` over the
        corridor probes of every context left to test.  Changes diverging
        at or after a context's window end — the common case of an update
        stream *extending* trajectories beyond standing windows — leave the
        context untouched, in O(1) when none is global.
        """
        earliest = -np.inf if None in changed.values() else min(changed.values(), default=np.inf)
        tested: List[Tuple[Tuple, List[object]]] = []
        probes = []
        for key, context in self._cache.items():
            query_id = key[0]
            if query_id not in self.mod:
                self._cache.discard(key)
                continue
            if context.t_end - 1e-12 <= earliest:
                continue
            relevant = {
                object_id
                for object_id, divergence in changed.items()
                if divergence is None or divergence < context.t_end - 1e-12
            }
            if not relevant:
                continue
            if query_id in relevant or not relevant.isdisjoint(context.pack.ids):
                self._cache.discard(key)
                continue
            present = [object_id for object_id in relevant if object_id in self.mod]
            if not present:
                continue
            # A zero-length window is not filtered: a fresh build keeps
            # every stored object, the changed ones included.
            if context.t_end <= context.t_start:
                self._cache.discard(key)
                continue
            corridor = float(
                corridor_probe_bulk(
                    self.mod,
                    [query_id],
                    context.t_start,
                    context.t_end,
                    [context.band_width],
                )[0]
            )
            if not np.isfinite(corridor):
                self._cache.discard(key)
                continue
            tested.append((key, present))
            probes.append(
                self._index.corridor_probes(
                    self.mod.get(query_id), corridor, context.t_start, context.t_end
                )
            )
        for (key, present), found in zip(tested, self._index.probe(probes)):
            if not set(found).isdisjoint(present):
                self._cache.discard(key)

    # ------------------------------------------------------------------
    # Candidate filtering.
    # ------------------------------------------------------------------

    def candidate_ids(
        self,
        query_id: object,
        t_start: float,
        t_end: float,
        band_width: Optional[float] = None,
    ) -> List[object]:
        """Index-filtered candidate ids for one query (safe superset of survivors)."""
        self.refresh()
        if band_width is None:
            band_width = self.mod.default_band_width(query_id)
        candidates, _ = filter_candidates(
            self.mod, self._index, query_id, t_start, t_end, band_width
        )
        return candidates

    # ------------------------------------------------------------------
    # Preparation.
    # ------------------------------------------------------------------

    def prepare(
        self,
        query_id: object,
        t_start: float,
        t_end: float,
        band_width: Optional[float] = None,
    ) -> PreparedQuery:
        """Prepare (or fetch from cache) the context of one query.

        The single member of a :meth:`prepare_batch` call.
        """
        (prepared,) = self.prepare_batch([query_id], t_start, t_end, band_width)
        return prepared

    def answer(
        self,
        query_id: object,
        t_start: float,
        t_end: float,
        variant: str = "sometime",
        fraction: float = 0.0,
        band_width: Optional[float] = None,
    ) -> Answer:
        """Prepare (or fetch) one query's context and extract its UQ3x answer.

        The per-query entry point of ad-hoc callers, and the one every plan's
        answers are pinned ``==`` to.
        """
        with band_span(self.registry, "engine.answer", query=query_id, variant=variant):
            prepared = self.prepare(query_id, t_start, t_end, band_width=band_width)
            return answer_of(prepared.context, variant, fraction)

    def prepare_batch(
        self,
        query_ids: Sequence[object],
        t_start: float,
        t_end: float,
        band_width: Optional[float] = None,
    ) -> BatchResult:
        """Prepare a batch of queries over a shared window in one pass.

        Cached members are served immediately; the remainder are built
        together, in stages (:meth:`_build`).

        Args:
            query_ids: ids of the query trajectories (duplicates allowed; the
                second occurrence hits the cache populated by the first).
            t_start: shared window start.
            t_end: shared window end.
            band_width: shared band width; per-query default when ``None``.
        """
        if t_end < t_start:
            raise ValueError(f"empty query window [{t_start}, {t_end}]")
        revision = self.refresh()
        with trace_span("engine.prepare_batch", queries=len(query_ids)) as span:
            result = self._prepare_batch_inner(
                query_ids, t_start, t_end, band_width, revision, span
            )
        self._m_batch.observe(result.total_seconds)
        return result

    def _prepare_batch_inner(
        self,
        query_ids: Sequence[object],
        t_start: float,
        t_end: float,
        band_width: Optional[float],
        revision: int,
        batch_span,
    ) -> BatchResult:
        batch_started = time.perf_counter()
        warm = self._warm_keys
        if warm[:5] == (revision, query_ids, t_start, t_end, band_width):
            widths, keys = warm[5:]
        else:
            widths, keys = self._keys(query_ids, t_start, t_end, band_width)

        results: Dict[int, PreparedQuery] = {}
        pending: List[int] = []
        for position, query_id in enumerate(query_ids):
            started = time.perf_counter()
            cached = self._cache.lookup(keys[position])
            if cached is not None:
                results[position] = PreparedQuery(
                    query_id=query_id,
                    context=cached,
                    candidate_count=len(cached.functions),
                    total_candidates=len(self.mod) - 1,
                    corridor_radius=None,
                    from_cache=True,
                    prepare_seconds=time.perf_counter() - started,
                )
            else:
                pending.append(position)

        # The warm path aggregates into one counter update per batch; the
        # per-position loop above stays instrumentation-free.
        self._m_cache_hits.inc(len(query_ids) - len(pending))

        # Deduplicate concurrent builds of the same context: only the first
        # position builds, later duplicates reuse its context.
        first_build: Dict[Tuple, int] = {}
        duplicates: List[int] = []
        builders: List[int] = []
        for position in pending:
            if keys[position] in first_build:
                duplicates.append(position)
            else:
                first_build[keys[position]] = position
                builders.append(position)

        built: List[PreparedQuery] = []
        # Skipped entirely on the all-cached warm path: a dashboard refresh
        # batch must pay for exactly one counter update and one histogram
        # observation (see benchmarks/bench_obs.py).
        if builders:
            built = self._build(
                [query_ids[position] for position in builders],
                t_start,
                t_end,
                [widths[position] for position in builders],
            )
            self._m_cache_misses.inc(len(builders))
            batch_span.set("cached", len(query_ids) - len(pending))
            batch_span.set("built", len(builders))
        for position, prepared in zip(builders, built):
            self._m_prepare.observe(prepared.prepare_seconds)
            results[position] = prepared
            self._cache.put(
                prepared.query_id, t_start, t_end, widths[position], prepared.context
            )
        for position in duplicates:
            original = results[first_build[keys[position]]]
            results[position] = PreparedQuery(
                query_id=original.query_id,
                context=original.context,
                candidate_count=original.candidate_count,
                total_candidates=original.total_candidates,
                corridor_radius=original.corridor_radius,
                from_cache=True,
                prepare_seconds=0.0,
            )

        ordered = [results[position] for position in range(len(query_ids))]
        return BatchResult(
            prepared=ordered,
            total_seconds=time.perf_counter() - batch_started,
            revision=revision,
        )

    def rank_answer(
        self, context: QueryContext, rank: int, variant: str, fraction: float = 0.0
    ) -> List[object]:
        """The UQ41/42/43 member ids of a prepared context.

        The first rank statement on a context builds its level envelopes:
        kernel work like the envelope itself, so it is reported the same way.
        A fresh copy per call of the context's memo (:meth:`QueryContext.rank_answer`).
        """
        with self._kernel_span(query=context.query_id, rank=rank):
            return list(context.rank_answer(rank, variant, fraction))

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    @contextmanager
    def _kernel_span(self, **attributes) -> Iterator:
        """An ``engine.kernel`` span that says what the kinetic front did
        inside it: ``events=``, ``walked_share=`` (the share of the packed
        rows the front walked), ``slab_rows_share=`` (the share of its dirty
        slabs' rows ``le_alg`` built), ``dirty_slabs=`` and
        ``dirty_time_share=`` (the share of window time the scalar algorithm
        recomputed) on the span, the slabs in
        ``repro_geometry_envelope_slabs_total{kind=}``.
        """
        before = front_tally()
        with trace_span("engine.kernel", **attributes) as span:
            yield span
            front = front_report(before)
            for name in (
                "events", "walked_share", "slab_rows_share", "dirty_slabs", "dirty_time_share"
            ):
                span.set(name, front[name])
        for kind, counter in self._m_slabs.items():
            if front[f"{kind}_slabs"]:
                counter.inc(front[f"{kind}_slabs"])

    def _build(
        self,
        query_ids: Sequence[object],
        t_start: float,
        t_end: float,
        widths: Sequence[float],
    ) -> List[PreparedQuery]:
        """Cold contexts of distinct ``(query, width)`` pairs, in stages.

        Every stage but the kinetic front is one pass over all of them:
        corridor radii from the window's samples, one scan of the store's
        box table for every corridor, one difference pass over
        every (query, candidate) row, the front per context under its
        ``engine.kernel`` span, then one band refinement over every
        context's undecided rows, whose band columns seed the contexts.  A
        member's ``prepare_seconds`` is its own stages plus an equal share
        of the batch passes.
        """
        count = len(query_ids)
        own = [0.0] * count
        candidates: Sequence[Optional[List[object]]] = [None] * count
        corridors: Sequence[Optional[float]] = [None] * count
        started = time.perf_counter()
        # A zero-length window cannot be sliced into probe segments (and the
        # preparation it gates is trivial anyway), so it skips the filter.
        if t_end > t_start:
            with trace_span("engine.corridor_bulk", queries=count):
                radii = corridor_probe_bulk(self.mod, query_ids, t_start, t_end, widths)
            self._m_corridor.observe(time.perf_counter() - started)
            filter_started = time.perf_counter()
            corridors = radii.tolist()
            with trace_span("engine.filter", queries=count):
                candidates = self.mod.candidates_within_corridor(
                    query_ids, corridors, t_start, t_end, self._index
                )
            self._m_corridor.observe(time.perf_counter() - filter_started)
        with trace_span("engine.difference", queries=count):
            difference_started = time.perf_counter()
            packs = self.mod.distance_packs(query_ids, t_start, t_end, candidates)
            difference = (time.perf_counter() - difference_started) / count
        contexts = []
        for position, (query_id, pack) in enumerate(zip(query_ids, packs)):
            kernel_started = time.perf_counter()
            # A fresh pack holds the functions the scalar builder made, only.
            fallbacks = pack.materialized
            with self._kernel_span(
                query=query_id,
                candidates=-1 if candidates[position] is None else len(candidates[position]),
                scalar_fallbacks=fallbacks,
            ):
                contexts.append(
                    QueryContext.build(pack, query_id, t_start, t_end, widths[position])
                )
            kernel = difference + time.perf_counter() - kernel_started
            own[position] += kernel
            self._m_kernel.observe(kernel)
            if fallbacks:
                self._m_difference_fallbacks.inc(fallbacks)
        with trace_span("engine.band", contexts=count):
            bands = band_intervals_many([
                (context.pack, context.envelope, context.band_width, t_start, t_end)
                for context in contexts
            ])
        for context, band in zip(contexts, bands):
            context.adopt_band(band)
        # The corridor and band passes, shared equally; the sums add up.
        shared = (time.perf_counter() - started - sum(own)) / count
        return [
            PreparedQuery(
                query_id=query_id,
                context=context,
                candidate_count=len(context.functions),
                total_candidates=len(self.mod) - 1,
                corridor_radius=corridor,
                from_cache=False,
                prepare_seconds=seconds + shared,
            )
            for query_id, context, corridor, seconds in zip(query_ids, contexts, corridors, own)
        ]
