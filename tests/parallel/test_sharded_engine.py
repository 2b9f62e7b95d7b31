"""ShardedEngine: equality with the single engine, and what it engages.

The engine runs a batch as one plan over the whole store, so on every
backend label, slice count and scenario its answers must be ``==`` to
per-query :meth:`QueryEngine.answer` calls.  ``BACKENDS`` is the contract
that every label callers pass still answers like the single engine.  The
engagement test pins what that design buys: one index per store.
"""

import multiprocessing
import os
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import QueryEngine
from repro.obs.metrics import MetricsRegistry
from repro.parallel import ShardedEngine
from repro.service import EnginePool
from repro.streaming import ContinuousMonitor, reference_answer
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import TrajectorySample, UncertainTrajectory
from repro.uncertainty.uniform import UniformDiskPDF
from repro.workloads.scenarios import (
    multi_query_fleet,
    sharded_fleet,
    streaming_fleet,
)

BACKENDS = ("serial", "thread", "process")
VARIANTS = (("sometime", 0.0), ("always", 0.0), ("fraction", 0.3))


def _streamed():
    """The streaming fleet after every update batch was applied."""
    scenario = streaming_fleet(num_vehicles=24, num_queries=3, num_batches=2)
    monitor = ContinuousMonitor(scenario.mod)
    for object_id in scenario.mod.object_ids:
        monitor.track(
            object_id,
            max_speed=scenario.max_speed,
            minimum_radius=scenario.uncertainty_radius,
        )
    for batch in scenario.batches:
        for object_id, reports in batch.items():
            monitor.ingest(object_id, reports)
        monitor.apply()
    return scenario.mod, scenario.query_ids


def _two_radii():
    """Two distant clusters whose pdf supports differ.

    A small-radius query's default band width is set by the *other*
    cluster's larger support, so equality here proves the width is
    resolved against the full store.
    """
    trajectories = [
        UncertainTrajectory(
            f"{name}-{i}",
            [TrajectorySample(x, float(i), 0.0), TrajectorySample(x + 5.0, float(i), 10.0)],
            radius,
            UniformDiskPDF(radius),
        )
        for name, x, radius in (("small", 0.0, 0.1), ("big", 100.0, 2.0))
        for i in range(6)
    ]
    return MovingObjectsDatabase(trajectories), ["small-0", "big-0"]


def _metric(registry, name, field="value"):
    return registry.snapshot()[name][field]


SCENARIOS = {
    "multi_query_fleet": lambda: multi_query_fleet(num_vehicles=40, num_queries=6),
    "streaming_fleet": _streamed,
    "sharded_fleet": lambda: sharded_fleet(num_districts=4, vehicles_per_district=8),
    "two_radii": _two_radii,
}


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def world(request):
    """``(mod, query_ids, window, {variant: expected answers})`` of a scenario."""
    mod, query_ids = SCENARIOS[request.param]()
    lo, hi = mod.common_time_span()
    single = QueryEngine(mod)
    expected = {
        variant: {
            query_id: single.answer(query_id, lo, hi, variant=variant, fraction=fraction)
            for query_id in query_ids
        }
        for variant, fraction in VARIANTS
    }
    return mod, list(query_ids), (lo, hi), expected


@pytest.fixture(scope="module")
def fleet():
    return sharded_fleet(num_districts=4, vehicles_per_district=8)


def moved(trajectory, dy):
    return UncertainTrajectory(
        trajectory.object_id,
        [TrajectorySample(s.x, s.y + dy, s.t) for s in trajectory.samples],
        trajectory.radius,
        trajectory.pdf,
    )


# ---------------------------------------------------------------------------
# Equality.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
@pytest.mark.parametrize("backend", BACKENDS)
def test_answers_equal_the_single_engine(world, backend, num_shards):
    mod, query_ids, (lo, hi), expected = world
    with ShardedEngine(mod, num_shards, backend=backend) as engine:
        for variant, fraction in VARIANTS:
            batch = engine.answer_batch(
                query_ids, lo, hi, variant=variant, fraction=fraction
            )
            assert batch.answers == expected[variant], variant
            assert [item.query_id for item in batch] == query_ids
            assert batch.fallback_ratio == 0.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_duplicate_query_ids_preserved_in_request_order(fleet, backend):
    mod, query_ids = fleet
    lo, hi = mod.common_time_span()
    doubled = [query_ids[0], query_ids[1], query_ids[0], query_ids[2]]
    with ShardedEngine(mod, 4, backend=backend) as engine:
        batch = engine.answer_batch(doubled, lo, hi)
        assert [item.query_id for item in batch] == doubled
        assert batch.results[0] is batch.results[2]
        assert len({id(item) for item in batch}) == 3
        assert engine.answer_batch([doubled[1]], lo, hi).answers == {
            doubled[1]: batch.results[1].answer
        }
        assert len(engine.answer_batch([], lo, hi)) == 0


def test_explicit_band_width_is_shared_by_the_batch(fleet):
    mod, query_ids = fleet
    lo, hi = mod.common_time_span()
    single = QueryEngine(mod)
    expected = {q: single.answer(q, lo, hi, band_width=1.5) for q in query_ids}
    for backend in ("serial", "process"):
        with ShardedEngine(mod, 2, backend=backend) as engine:
            assert engine.answer_batch(query_ids, lo, hi, band_width=1.5).answers == expected


def test_unknown_query_and_bad_arguments(fleet):
    mod, query_ids = fleet
    lo, hi = mod.common_time_span()
    with ShardedEngine(mod, 4, backend="serial") as engine:
        with pytest.raises(KeyError):
            engine.answer_batch(["nope"], lo, hi)
        with pytest.raises(ValueError):
            engine.answer_batch(query_ids, hi, lo)
        with pytest.raises(ValueError):
            engine.answer_batch(query_ids, lo, hi, variant="never")
    with pytest.raises(ValueError):
        ShardedEngine(mod, 4, backend="gpu")
    with pytest.raises(ValueError):
        ShardedEngine(mod, 0)
    with pytest.raises(TypeError, match="engine"):
        ShardedEngine(mod, 4, backend="serial", engine=QueryEngine(mod))
    for option, value in [
        ("index", "grid"), ("leaf_capacity", 8), ("grid_cells", 16),
        ("max_workers", 2), ("mp_start_method", "spawn"), ("cache_size", 64),
    ]:
        with pytest.raises(TypeError, match=option):
            ShardedEngine(mod, 4, backend="serial", **{option: value})


def test_every_slice_slot_sees_the_whole_store(fleet):
    mod, query_ids = fleet
    lo, hi = mod.common_time_span()
    with ShardedEngine(mod, 3, backend="serial") as engine:
        infos = engine.shard_info()
        assert [info.shard for info in infos] == [0, 1, 2]
        assert all(info.members == len(mod) for info in infos)
        batch = engine.answer_batch(query_ids, lo, hi)
        assert len(batch) == len(query_ids)
        assert batch.total_seconds > 0
        assert all(item.candidate_count > 0 for item in batch)


# ---------------------------------------------------------------------------
# Mutations under a live engine.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_answers_follow_additions_replacements_and_removals(backend):
    mod, query_ids = sharded_fleet(num_districts=4, vehicles_per_district=8)
    lo, hi = mod.common_time_span()

    def expected():
        single = QueryEngine(mod)
        return {q: single.answer(q, lo, hi) for q in query_ids}

    with ShardedEngine(mod, 4, backend=backend) as engine:
        assert engine.answer_batch(query_ids, lo, hi).answers == expected()
        mod.replace_trajectory(moved(mod.get(query_ids[0]), 0.4))
        engine.single_engine().refresh()
        assert engine.answer_batch(query_ids, lo, hi).answers == expected()
        newcomer = UncertainTrajectory(
            "newcomer",
            [TrajectorySample(1.0, 1.0, lo), TrajectorySample(2.0, 2.0, hi)],
            0.2,
            UniformDiskPDF(0.2),
        )
        mod.add(newcomer)
        assert engine.answer_batch(["newcomer"], lo, hi).answers == {
            "newcomer": QueryEngine(mod).answer("newcomer", lo, hi)
        }
        # Removed and re-added between two batches: the id moves to the end
        # of the store's insertion order.
        mod.remove(query_ids[1])
        mod.remove("newcomer")
        mod.add(moved(newcomer, 0.5))
        with pytest.raises(KeyError):
            engine.answer_batch([query_ids[1]], lo, hi)
        query_ids = [q for q in query_ids if q != query_ids[1]] + ["newcomer"]
        assert engine.answer_batch(query_ids, lo, hi).answers == expected()


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_empty_store_serves_once_upserted(backend):
    source, query_ids = multi_query_fleet(num_vehicles=20, num_queries=3)
    mod = MovingObjectsDatabase()
    with ShardedEngine(mod, 2, backend=backend) as engine:
        assert len(mod.index()) == 0
        mod.upsert_many(list(source))
        lo, hi = mod.common_time_span()
        assert engine.answer_batch(query_ids, lo, hi).answers == {
            query_id: reference_answer(mod, query_id, lo, hi) for query_id in query_ids
        }


coordinate = st.floats(
    min_value=0.0, max_value=30.0, allow_nan=False, allow_infinity=False
)
operations = st.lists(
    st.tuples(
        st.sampled_from(["replace", "upsert", "remove"]),
        st.integers(min_value=0, max_value=7),
        coordinate,
        st.booleans(),
    ),
    min_size=1,
    max_size=6,
)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=10, deadline=None)
@given(ops=operations)
def test_any_mutation_sequence_keeps_batch_answers_exact(backend, ops):
    """A live engine follows every upsert/remove/replace sequence exactly.

    Whether one change or several land between two batches, the batch
    answers every object still in the store as a fresh single engine does,
    and every slice slot counts the store as it now is.
    """
    pdf = UniformDiskPDF(0.2)
    mod = MovingObjectsDatabase(
        UncertainTrajectory(
            f"o{index}",
            [TrajectorySample(3.0 * index, 2.0 * index + t, t) for t in (0.0, 5.0, 10.0)],
            0.2,
            pdf,
        )
        for index in range(4)
    )
    with ShardedEngine(mod, 2, backend=backend) as engine:
        for kind, which, coord, serve_now in [*ops, ("replace", 0, 1.0, True)]:
            object_id = f"o{which}"
            if kind == "remove":
                # Keep the store non-empty and o0 queryable throughout.
                if object_id != "o0" and object_id in mod and len(mod) > 2:
                    mod.remove(object_id)
            elif kind == "replace" and object_id in mod:
                mod.replace_trajectory(moved(mod.get(object_id), coord))
            else:
                mod.upsert(UncertainTrajectory(
                    object_id,
                    [TrajectorySample(coord, coord + t, t) for t in (0.0, 5.0, 10.0)],
                    0.2,
                    pdf,
                ))
            if not serve_now:
                continue
            single = QueryEngine(mod)
            assert engine.answer_batch(mod.object_ids, 0.0, 10.0).answers == {
                query_id: single.answer(query_id, 0.0, 10.0)
                for query_id in mod.object_ids
            }
            assert all(info.members == len(mod) for info in engine.shard_info())


@pytest.mark.parametrize("backend", BACKENDS)
def test_refresh_pays_a_store_change_before_the_next_batch(backend):
    mod, query_ids = sharded_fleet(num_districts=2, vehicles_per_district=6)
    lo, hi = mod.common_time_span()
    registry = MetricsRegistry()
    with ShardedEngine(mod, 2, backend=backend, registry=registry) as engine:
        engine.answer_batch(query_ids, lo, hi)
        assert _metric(registry, "repro_engine_refresh_total") == 0
        mod.replace_trajectory(moved(mod.get(query_ids[0]), 0.3))
        engine.single_engine().refresh()
        assert _metric(registry, "repro_engine_refresh_total") == 1
        batch = engine.answer_batch(query_ids, lo, hi)
        # The batch found the engine already in step with the store.
        assert _metric(registry, "repro_engine_refresh_total") == 1
        single = QueryEngine(mod)
        assert batch.answers == {q: single.answer(q, lo, hi) for q in query_ids}


# ---------------------------------------------------------------------------
# Engagement: what one engine over the whole store buys.
# ---------------------------------------------------------------------------


def test_one_index_per_store_across_the_pool_and_a_sharded_engine():
    """The pool's engine and a sharded engine share one index."""
    mod, query_ids = multi_query_fleet(num_vehicles=40, num_queries=6)
    lo, hi = mod.common_time_span()
    registry = MetricsRegistry()

    def index_builds():
        return registry.snapshot()["repro_engine_index_build_seconds"]["count"]

    with EnginePool(mod, registry=registry) as pool:
        assert pool.warm_up() == "single"
        assert index_builds() == 1
        tree = mod.index()
        for _ in range(3):
            # 36 of 40 objects move: one patch of the store's index.
            for object_id in mod.object_ids[:36]:
                mod.replace_trajectory(moved(mod.get(object_id), 0.1))
            pool.answer_group(query_ids, lo, hi)
            assert index_builds() == 1
            assert pool.single_engine().index is tree is mod.index()
        single = pool.single_engine()
        pool.answer_group(query_ids, lo, hi)
        assert single.cache_info().hits > 0
        # A sharded engine over the same store reuses the store's index.
        with ShardedEngine(mod, 4, backend="thread", registry=registry) as sharded:
            assert sharded.answer_batch([query_ids[0]], lo, hi).answers == {
                query_ids[0]: single.answer(query_ids[0], lo, hi)
            }
        assert index_builds() == 1


def test_close_is_idempotent_and_the_engine_stays_usable(fleet):
    mod, query_ids = fleet
    lo, hi = mod.common_time_span()
    engine = ShardedEngine(mod, 4, backend="process")
    first = engine.answer_batch(query_ids[:2], lo, hi).answers
    assert engine.shared_segments() == ()
    engine.close()
    engine.close()
    assert engine.answer_batch(query_ids[:2], lo, hi).answers == first
    engine.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_warm_up_leaves_the_first_batch_nothing_to_build(backend):
    mod, query_ids = sharded_fleet(num_districts=2, vehicles_per_district=6)
    lo, hi = mod.common_time_span()
    registry = MetricsRegistry()
    with ShardedEngine(mod, 4, backend=backend, registry=registry) as engine:
        engine.warm_up()
        assert _metric(registry, "repro_engine_index_build_seconds", "count") == 1
        first = engine.answer_batch(query_ids, lo, hi)
        assert _metric(registry, "repro_engine_index_build_seconds", "count") == 1
        assert _metric(registry, "repro_engine_cache_misses_total") == len(query_ids)
        engine.warm_up()
        again = engine.answer_batch(query_ids, lo, hi)
        assert again.answers == first.answers
        # The second batch, after a second warm-up, is all cache hits.
        assert _metric(registry, "repro_engine_index_build_seconds", "count") == 1
        assert _metric(registry, "repro_engine_cache_misses_total") == len(query_ids)
        assert _metric(registry, "repro_engine_cache_hits_total") == len(query_ids)


def test_batch_metrics_are_the_only_sharded_instruments(fleet):
    mod, query_ids = fleet
    lo, hi = mod.common_time_span()
    registry = MetricsRegistry()
    with ShardedEngine(mod, 4, backend="process", registry=registry) as engine:
        engine.answer_batch(query_ids, lo, hi)
        engine.answer_batch(query_ids[:1], lo, hi)
    snapshot = registry.snapshot()
    assert sorted(name for name in snapshot if name.startswith("repro_sharded_")) == [
        "repro_sharded_batch_seconds",
        "repro_sharded_batches_total",
    ]
    assert snapshot["repro_sharded_batches_total"]["value"] == 2
    assert snapshot["repro_sharded_batch_seconds"]["count"] == 2


def _shared_memory_segments():
    """Names of the POSIX shared-memory segments Python creates (``psm_*``)."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_batch_starts_no_process_thread_or_segment(fleet, backend):
    """Every label serves in the calling thread and leaves nothing behind."""
    mod, query_ids = fleet
    lo, hi = mod.common_time_span()
    segments = _shared_memory_segments()
    threads = set(threading.enumerate())
    with ShardedEngine(mod, 4, backend=backend) as engine:
        engine.warm_up()
        engine.answer_batch(query_ids, lo, hi)
        assert engine.shared_segments() == ()
        assert multiprocessing.active_children() == []
        assert set(threading.enumerate()) <= threads
        assert _shared_memory_segments() <= segments
