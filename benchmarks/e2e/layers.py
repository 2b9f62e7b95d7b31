"""Per-layer measurements, timed from outside the program.

Two kinds of numbers come from here, both taken only in the traced pass:

* :func:`replay_context` rebuilds one query's answer by calling the layers'
  public functions in the order the engine calls them, each under a bench
  span.  The workloads run their sampled ops through it, so these numbers
  follow the workload's own path and are 0 where the path skips a layer.
* :func:`probe_layers` times fixed, small jobs against the workload's fleet
  (index build, cold and warm prepare, shard batches, WAL append, ...).
  They do not depend on the op mix.

Layer names are the ``src/repro`` packages.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor
import os
import shutil
import statistics
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.queries import QueryContext
from repro.engine import QueryEngine, answer_of, corridor_probe_bulk, filter_candidates
from repro.geometry.envelope.bulk import DegenerateArrangement, k_level_envelopes_bulk
from repro.geometry.envelope.divide_conquer import lower_envelope
from repro.parallel import ShardedEngine
from repro.persistence import PersistentStore, restore
from repro.service import QueryRequest, QueryService
from repro.trajectories.columnar import ColumnarStore
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import TrajectorySample, UncertainTrajectory
from repro.workloads.scenarios import multi_query_fleet

from spans import Tracer

#: Every per-layer metric the traced pass reports, with its unit.  A metric
#: the workload's path never touches stays at 0.
PER_LAYER: Dict[str, str] = {
    "service.hit_us": "us",
    "service.miss_overhead_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.coalesce_width": "count",
    "service.cache_hit_ratio": "ratio",
    "service.start_ms": "ms",
    "service.latency_p99_ms": "ms",
    "service.latency_p99_samples": "count",
    "engine.prepare_ms": "ms",
    "engine.prepare_hit_us": "us",
    "engine.context_hit_ratio": "ratio",
    "engine.filter_ms": "ms",
    "engine.filter_ratio": "ratio",
    "engine.corridor_bulk_ms": "ms",
    "engine.refresh_ms": "ms",
    "engine.prepare_ms.n500": "ms",
    "engine.prepare_ms.n2000": "ms",
    "engine.prepare_ms.n10000": "ms",
    "index.build_ms": "ms",
    "index.probe_ms": "ms",
    "trajectories.difference_ms": "ms",
    "trajectories.difference_us_per_candidate": "us",
    "trajectories.columnar_pack_ms": "ms",
    "trajectories.upsert_us": "us",
    "geometry.lower_envelope_ms": "ms",
    "geometry.envelope_pieces": "count",
    "geometry.klevel_ms": "ms",
    "geometry.klevel_fallback_share": "share",
    "core.band_ms": "ms",
    "core.band_survival_ratio": "ratio",
    "core.answer_ms": "ms",
    "core.rank_answer_ms": "ms",
    "parallel.answer_batch_ms": "ms",
    "parallel.warm_batch_ms": "ms",
    "parallel.over_single_ratio": "ratio",
    "parallel.fallback_ratio": "ratio",
    "parallel.mean_members_share": "share",
    "parallel.warm_up_ms": "ms",
    "parallel.process_cold_ms_per_query": "ms",
    "parallel.process_warm_up_ms": "ms",
    "query_language.compile_ms": "ms",
    "query_language.execute_ms": "ms",
    "query_language.groups_per_statement": "ratio",
    "streaming.ingest_ms": "ms",
    "streaming.apply_ms": "ms",
    "streaming.affected_ratio": "ratio",
    "streaming.deltas_per_batch": "count",
    "persistence.wal_append_us": "us",
    "persistence.wal_bytes_per_update": "bytes",
    "persistence.checkpoint_ms": "ms",
    "persistence.restore_ms": "ms",
    "persistence.snapshot_bytes_per_sample": "bytes",
    "obs.trace_overhead_share": "share",
    "budget.unattributed_share": "share",
}

#: Span name -> the per-layer metric holding its median call time.
SPAN_METRICS: Dict[str, str] = {
    "engine.filter": "engine.filter_ms",
    "engine.corridor_bulk": "engine.corridor_bulk_ms",
    "index.probe": "index.probe_ms",
    "trajectories.difference": "trajectories.difference_ms",
    "geometry.lower_envelope": "geometry.lower_envelope_ms",
    "geometry.klevel": "geometry.klevel_ms",
    "core.band": "core.band_ms",
    "core.answer": "core.answer_ms",
    "core.rank_answer": "core.rank_answer_ms",
    "query_language.compile": "query_language.compile_ms",
    "streaming.ingest": "streaming.ingest_ms",
    "streaming.apply": "streaming.apply_ms",
}

#: The scale sweep's store sizes, keyed by the metric suffix they fill.
SCALE_SWEEP = ("n500", "n2000", "n10000")


def median_ms(seconds: Sequence[float]) -> float:
    """Median of a list of second timings, in milliseconds (0 when empty)."""
    return statistics.median(seconds) * 1e3 if seconds else 0.0


class ReplayCounts:
    """Counts taken at the layer boundaries the replay crosses."""

    def __init__(self) -> None:
        self.candidates: List[int] = []
        self.others: List[int] = []
        self.pieces: List[int] = []
        self.survivors: List[int] = []
        self.klevel_calls = 0
        self.klevel_escapes = 0
        self.klevel_inputs: List[tuple] = []

    def settle(self) -> None:
        """Outside every span: did the kinetic sweep escape to the scalar cascade?

        ``k_level_envelopes`` hides the answer, so the sweep is run once
        more on each recorded input, after the op that recorded it closed.
        """
        for survivors, t_start, t_end, levels in self.klevel_inputs:
            self.klevel_calls += 1
            ordered = sorted(survivors, key=lambda f: str(f.object_id))
            try:
                k_level_envelopes_bulk(ordered, t_start, t_end, levels)
            except DegenerateArrangement:
                self.klevel_escapes += 1
        self.klevel_inputs.clear()

    def metrics(self, tracer: Tracer) -> Dict[str, float]:
        self.settle()
        out: Dict[str, float] = {}
        if self.candidates:
            total = sum(self.candidates)
            out["engine.filter_ratio"] = total / sum(self.others)
            out["trajectories.difference_us_per_candidate"] = (
                sum(tracer.durations("trajectories.difference")) * 1e6 / total
            )
            out["geometry.envelope_pieces"] = statistics.mean(self.pieces)
            out["core.band_survival_ratio"] = sum(self.survivors) / total
        if self.klevel_calls:
            out["geometry.klevel_fallback_share"] = (
                self.klevel_escapes / self.klevel_calls
            )
        return out


def replay_context(
    tracer: Tracer,
    mod: MovingObjectsDatabase,
    index,
    query_id: object,
    t_start: float,
    t_end: float,
    counts: ReplayCounts,
    *,
    corridor: Optional[float] = None,
    levels: int = 0,
) -> QueryContext:
    """One cold ``QueryEngine.prepare``, taken apart into its layer calls.

    ``corridor`` is the probe radius when a batch already computed it (the
    engine computes a whole batch's radii in one pass); ``levels`` also
    builds that many level envelopes, as a rank statement makes the context
    do.
    """
    with tracer.span("engine.prepare"):
        band_width = mod.default_band_width(query_id)
        with tracer.span("engine.filter"):
            if corridor is None:
                with tracer.span("engine.corridor_bulk"):
                    corridor = float(
                        corridor_probe_bulk(
                            mod, [query_id], t_start, t_end, [band_width]
                        )[0]
                    )
            with tracer.span("index.probe"):
                candidates, _ = filter_candidates(
                    mod, index, query_id, t_start, t_end, band_width,
                    corridor=corridor,
                )
        with tracer.span("trajectories.difference"):
            functions = mod.distance_functions(
                query_id, t_start, t_end, candidate_ids=candidates
            )
        with tracer.span("geometry.lower_envelope"):
            envelope = lower_envelope(functions, t_start, t_end)
        context = QueryContext(
            query_id,
            t_start,
            t_end,
            band_width,
            {function.object_id: function for function in functions},
            envelope,
        )
        with tracer.span("core.band"):
            survivors = context.survivors()
        if levels:
            with tracer.span("geometry.klevel"):
                context.level_envelopes(levels)
    counts.candidates.append(len(functions))
    counts.others.append(len(mod) - 1)
    counts.pieces.append(len(envelope))
    counts.survivors.append(len(survivors))
    if levels:
        counts.klevel_inputs.append((survivors, t_start, t_end, levels))
    return context


def shard_safety_check(
    tracer: Tracer, mod: MovingObjectsDatabase, query_ids, t_start: float, t_end: float
) -> None:
    """The corridor radii a shard computes before it trusts its own answer.

    The sharded path pays these on top of the ones ``prepare`` computes for
    its filter (``repro.parallel.worker.evaluate_shard``), so a replay of a
    sharded op has to pay them too.
    """
    with tracer.span("parallel.safety_check"):
        widths = [mod.default_band_width(query_id) for query_id in query_ids]
        corridor_probe_bulk(mod, query_ids, t_start, t_end, widths)


# ----------------------------------------------------------------------
# Fixed probes.
# ----------------------------------------------------------------------


def perturbed(
    trajectory: UncertainTrajectory, rng: np.random.Generator, sigma: float = 0.2
) -> UncertainTrajectory:
    """The same vehicle with a seeded change of destination.

    Only the last waypoint moves, as when a route is updated ahead of the
    vehicle: the store sees the trajectory diverge at its last leg.  Every
    sample is rebuilt from plain floats, because the fleet generators store
    NumPy scalars and the WAL refuses to unpickle those on restore.
    """
    samples = [
        TrajectorySample(float(sample.x), float(sample.y), float(sample.t))
        for sample in trajectory.samples
    ]
    last = samples[-1]
    samples[-1] = TrajectorySample(
        last.x + float(rng.normal(0.0, sigma)), last.y + float(rng.normal(0.0, sigma)), last.t
    )
    return UncertainTrajectory(
        trajectory.object_id, samples, trajectory.radius, trajectory.pdf
    )


def fresh_windows(
    mod: MovingObjectsDatabase, rng: np.random.Generator, count: int, width: float
) -> List[tuple]:
    """``count`` seeded windows inside the fleet's common time span."""
    lo, hi = mod.common_time_span()
    width = min(width, (hi - lo) / 2.0)
    starts = rng.uniform(lo, hi - width, size=count)
    return [(float(start), float(start) + width) for start in starts]


def _timed(call: Callable[[], object]) -> float:
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def _probe_store(mod: MovingObjectsDatabase, out: Dict[str, float]) -> None:
    out["index.build_ms"] = median_ms([_timed(lambda: mod.build_index("rtree")) for _ in range(3)])
    out["trajectories.columnar_pack_ms"] = median_ms(
        [_timed(lambda: ColumnarStore(mod).pack()) for _ in range(3)]
    )


def _probe_engine(
    mod: MovingObjectsDatabase, rng, queries: int, width: float, out: Dict[str, float]
) -> None:
    """Cold prepare, warm prepare, and the refresh after one mutation."""
    private = MovingObjectsDatabase(list(mod))
    engine = QueryEngine(private)
    ids = private.object_ids
    picks = [ids[int(k)] for k in rng.choice(len(ids), size=queries, replace=False)]
    windows = fresh_windows(private, rng, queries, width)
    cold = [
        _timed(lambda: engine.prepare(query_id, lo, hi))
        for query_id, (lo, hi) in zip(picks, windows)
    ]
    warm = [
        _timed(lambda: engine.prepare(query_id, lo, hi))
        for query_id, (lo, hi) in zip(picks, windows)
    ]
    out["engine.prepare_ms"] = median_ms(cold)
    out["engine.prepare_hit_us"] = statistics.median(warm) * 1e6
    refresh = []
    for query_id, (lo, hi) in zip(picks, windows):
        victim = ids[int(rng.integers(len(ids)))]
        private.replace_trajectory(perturbed(private.get(victim), rng))
        first = _timed(lambda: engine.prepare(query_id, lo, hi))
        again = _timed(lambda: engine.prepare(query_id, lo, hi))
        refresh.append(first - again)
    out["engine.refresh_ms"] = median_ms(refresh)


def _probe_scale(seed: int, sizes: Sequence[int], queries: int, out: Dict[str, float]) -> None:
    for suffix, vehicles in zip(SCALE_SWEEP, sizes):
        mod, query_ids = multi_query_fleet(
            num_vehicles=vehicles, num_queries=queries, seed=seed
        )
        engine = QueryEngine(mod)
        rng = np.random.default_rng([seed, 71, vehicles])
        windows = fresh_windows(mod, rng, queries, 8.0)
        out[f"engine.prepare_ms.{suffix}"] = median_ms(
            [
                _timed(lambda: engine.prepare(query_id, lo, hi))
                for query_id, (lo, hi) in zip(query_ids, windows)
            ]
        )


def _single_batch(engine: QueryEngine, query_ids, lo: float, hi: float) -> None:
    for prepared in engine.prepare_batch(query_ids, lo, hi):
        answer_of(prepared.context, "sometime")


def _probe_parallel(
    mod: MovingObjectsDatabase, rng, batches: int, width: float, out: Dict[str, float]
) -> None:
    ids = mod.object_ids
    single = QueryEngine(mod)
    with ShardedEngine(mod, 4, backend="thread") as sharded:
        out["parallel.warm_up_ms"] = _timed(sharded.warm_up) * 1e3
        out["parallel.mean_members_share"] = statistics.mean(
            info.members for info in sharded.shard_info()
        ) / len(mod)
        cold, warm, alone, escaped = [], [], [], []
        for lo, hi in fresh_windows(mod, rng, batches, width):
            batch = [ids[int(k)] for k in rng.choice(len(ids), size=6, replace=False)]
            started = time.perf_counter()
            result = sharded.answer_batch(batch, lo, hi)
            cold.append(time.perf_counter() - started)
            escaped.append(result.fallback_ratio)
            warm.append(_timed(lambda: sharded.answer_batch(batch, lo, hi)))
            alone.append(_timed(lambda: _single_batch(single, batch, lo, hi)))
    out["parallel.answer_batch_ms"] = median_ms(cold)
    out["parallel.warm_batch_ms"] = median_ms(warm)
    out["parallel.over_single_ratio"] = statistics.median(cold) / statistics.median(alone)
    out["parallel.fallback_ratio"] = statistics.mean(escaped)


def _probe_process_backend(
    mod: MovingObjectsDatabase, rng, width: float, out: Dict[str, float]
) -> None:
    """One small batch on the process backend: where its cold cost goes."""
    ids = mod.object_ids
    batch = [ids[int(k)] for k in rng.choice(len(ids), size=6, replace=False)]
    (lo, hi), = fresh_windows(mod, rng, 1, width)
    sharded = ShardedEngine(mod, 4, backend="process")
    try:
        out["parallel.process_warm_up_ms"] = _timed(sharded.warm_up) * 1e3
        out["parallel.process_cold_ms_per_query"] = (
            _timed(lambda: sharded.answer_batch(batch, lo, hi)) * 1e3 / len(batch)
        )
        segments = sharded.shared_segments()
    finally:
        sharded.close()
    leaked = [name for name in segments if os.path.exists(f"/dev/shm/{name.lstrip('/')}")]
    if leaked:
        raise RuntimeError(f"shared-memory segments left behind: {leaked}")


def _probe_persistence(
    mod: MovingObjectsDatabase, rng, updates: int, work_dir: str, out: Dict[str, float]
) -> None:
    ids = mod.object_ids
    victims = [ids[int(k)] for k in rng.integers(len(ids), size=updates)]

    def upserts(store: MovingObjectsDatabase, passes: int = 3) -> float:
        """Seconds per upsert: the best of a few passes over the victims."""
        best = float("inf")
        for _ in range(passes):
            replacements = [perturbed(store.get(victim), rng) for victim in victims]
            started = time.perf_counter()
            for trajectory in replacements:
                store.upsert(trajectory)
            best = min(best, (time.perf_counter() - started) / updates)
        return best

    plain = upserts(MovingObjectsDatabase(list(mod)))
    out["trajectories.upsert_us"] = plain * 1e6
    data_dir = os.path.join(work_dir, "probe-data")
    logged_store = MovingObjectsDatabase(list(mod))
    durable = PersistentStore(data_dir, logged_store, fsync="batch")
    try:
        before = durable.wal.size_bytes()
        logged = upserts(logged_store)
        out["persistence.wal_append_us"] = (logged - plain) * 1e6
        out["persistence.wal_bytes_per_update"] = (
            durable.wal.size_bytes() - before
        ) / (3 * updates)
        started = time.perf_counter()
        info = durable.checkpoint()
        out["persistence.checkpoint_ms"] = (time.perf_counter() - started) * 1e3
        out["persistence.snapshot_bytes_per_sample"] = info.bytes / info.samples
        # A short WAL tail, so the restore replays frames as a crash would.
        upserts(logged_store, passes=1)
        durable.flush()
        out["persistence.restore_ms"] = _timed(lambda: restore(data_dir)) * 1e3
    finally:
        durable.close()
        shutil.rmtree(data_dir, ignore_errors=True)


async def _probe_service(
    mod: MovingObjectsDatabase, rng, groups: int, width: float, out: Dict[str, float]
) -> None:
    """Hit cost, and what ``submit`` adds over ``pool.answer_group``."""
    private = MovingObjectsDatabase(list(mod))
    service = QueryService(private)
    started = time.perf_counter()
    await service.start()
    out["service.start_ms"] = (time.perf_counter() - started) * 1e3
    try:
        ids = private.object_ids
        overhead = []
        for lo, hi in fresh_windows(private, rng, groups, width):
            batch = [ids[int(k)] for k in rng.choice(len(ids), size=6, replace=False)]
            requests = [QueryRequest(query_id, lo, hi) for query_id in batch]
            await service.submit_all(requests)  # contexts warm from here on
            sharded = service.pool.sharded_engine() if service.pool.backend_kind() == "sharded" else None
            service.cache.clear()
            if sharded is not None:
                sharded.clear_answer_cache()
            begun = time.perf_counter()
            await service.submit_all(requests)
            through_service = time.perf_counter() - begun
            if sharded is not None:
                sharded.clear_answer_cache()
            direct = _timed(lambda: service.pool.answer_group(batch, lo, hi))
            overhead.append(through_service - direct)
        out["service.miss_overhead_ms"] = median_ms(overhead)
        hits = []
        for _ in range(200):
            begun = time.perf_counter()
            await service.submit(requests[0])
            hits.append(time.perf_counter() - begun)
        out["service.hit_us"] = statistics.median(hits) * 1e6
    finally:
        await service.stop()


async def probe_layers(
    mod: MovingObjectsDatabase,
    seed: int,
    *,
    queries: int,
    width: float,
    scale_sizes: Sequence[int],
    work_dir: str,
) -> tuple:
    """Run every fixed probe against ``mod``; returns ``(metrics, notes)``."""
    rng = np.random.default_rng([seed, 61])
    out: Dict[str, float] = {}
    notes: List[str] = []
    _probe_store(mod, out)
    _probe_engine(mod, rng, queries, width, out)
    _probe_scale(seed, scale_sizes, queries, out)
    _probe_parallel(mod, rng, max(2, queries // 2), width, out)
    _probe_persistence(mod, rng, 25 * queries, work_dir, out)
    await _probe_service(mod, rng, max(2, queries // 2), width, out)
    try:
        _probe_process_backend(mod, rng, width, out)
    except (OSError, BrokenExecutor):
        # No /dev/shm or no worker processes in this sandbox: the probe
        # explains an ungated number, so report it missing, not the run
        # failed.
        notes.append("process-backend probe skipped:\n" + traceback.format_exc())
    return out, notes
