"""Batch ingest end to end: one upsert, one WAL write, one patched store index.

A streaming tick is batch-shaped from report to index: the monitor hands its
changed trajectories to ``MovingObjectsDatabase.upsert_many`` (one change
record per object, one listener call, one WAL write), and the store's own
index — shared by every engine over the store — is patched once per
revision.  The property below drives random batches of extensions,
replacements, additions and removals through that path and checks, after
every batch, everything the path must preserve; the engagement tests pin
that the batch shape is what actually runs.  Every oracle works on a copy
of the store or from scratch, never through an engine over the live store,
because that engine would share the index under test.
"""

from __future__ import annotations

import asyncio
import sys
import tempfile
import threading

import pytest
from hypothesis import given, strategies as st

from repro.core.tolerances import TIME_TOLERANCE
from repro.engine import QueryEngine
from repro.obs.metrics import MetricsRegistry
from repro.persistence import PersistentStore, restore
from repro.query_language import PlannedStatement
from repro.reference.boxes import Box3D, segment_boxes
from repro.service import QueryService
from repro.streaming import ContinuousMonitor, reference_answer
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import TrajectorySample, UncertainTrajectory
from repro.workloads.scenarios import streaming_fleet

from ..conftest import probe_box, probe_corridor

KINDS = ("extend", "replace_tail", "replace_all", "add", "remove")

operations = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 63), st.floats(-2.0, 2.0)),
    min_size=1,
    max_size=5,
)


def auto_extent(mod):
    """The subdivision ``build_index`` picks for the store as it is now."""
    x_min, y_min, x_max, y_max = mod.columnar().pack().spatial_bounds()
    return max(x_max - x_min, y_max - y_min) / 32.0


def mutated(mod, kind, pick, shift, serial):
    """One batch element: an extension, a replacement or a new object."""
    ids = mod.object_ids
    old = mod.get(ids[pick % len(ids)])
    samples = old.samples
    if kind == "extend":
        last = samples[-1]
        extra = tuple(
            TrajectorySample(last.x + shift * step, last.y - shift * step, last.t + step)
            for step in (0.5, 1.0)
        )
        return UncertainTrajectory(old.object_id, samples + extra, old.radius, old.pdf)
    if kind == "replace_tail":
        half = len(samples) // 2
        tail = tuple(TrajectorySample(s.x + shift, s.y, s.t) for s in samples[half:])
        return UncertainTrajectory(old.object_id, samples[:half] + tail, old.radius, old.pdf)
    if kind == "replace_all":
        moved = [TrajectorySample(s.x, s.y + shift + 0.1, s.t) for s in samples]
        return UncertainTrajectory(old.object_id, moved, old.radius, old.pdf)
    lo, hi = mod.common_time_span()
    return UncertainTrajectory(
        f"new-{serial}",
        [(samples[0].x + shift, 1.0, lo), (5.0, 5.0 + shift, (lo + hi) / 2), (9.0, 2.0, hi)],
        old.radius,
    )


def index_answers(index, mod, probes):
    """What an index answers: box probes, plus a corridor around every object."""
    lo, hi = mod.common_time_span()
    return (
        [probe_box(index, box) for box in probes],
        [probe_corridor(index, trajectory, 1.5, lo, hi) for trajectory in mod],
    )


@given(batches=st.lists(operations, min_size=1, max_size=3), seed=st.integers(0, 3))
def test_random_batches_keep_index_monitor_log_and_restore_exact(batches, seed):
    world = streaming_fleet(
        num_vehicles=8, num_queries=2, horizon_minutes=8.0, num_batches=1, seed=seed
    )
    mod = world.mod
    registry = MetricsRegistry()
    with tempfile.TemporaryDirectory() as data_dir:
        durable = PersistentStore(data_dir, mod, registry=registry)
        monitor = ContinuousMonitor(mod)
        for query_id in world.query_ids:
            monitor.register(query_id, sliding=4.0)
        monitor.register(world.query_ids[0], window=(1.0, 6.0), variant="always")
        extent = auto_extent(mod)
        base = mod.revision
        probes = [Box3D(x, y, 0.0, x + 6.0, y + 6.0, 30.0) for x in (0, 9, 18) for y in (0, 12)]
        for number, batch in enumerate(batches):
            # A bad element anywhere rejects the whole batch untouched.
            before = (mod.revision, mod.changelog_records(), list(mod))
            with pytest.raises(TypeError):
                mod.upsert_many([mod.get(mod.object_ids[0]), "not a trajectory"])
            assert (mod.revision, mod.changelog_records(), list(mod)) == before

            upserts = {}
            for position, (kind, pick, shift) in enumerate(batch):
                if kind == "remove":
                    victims = [i for i in mod.object_ids if i not in world.query_ids]
                    if len(victims) > 4:
                        upserts.pop(victims[pick % len(victims)], None)
                        mod.remove(victims[pick % len(victims)])
                    continue
                trajectory = mutated(mod, kind, pick, shift, f"{number}.{position}")
                upserts[trajectory.object_id] = trajectory
            monitor.apply(trajectories=list(upserts.values()))

            # The store's index answers like a fresh load over a copy.
            copy = MovingObjectsDatabase(list(mod))
            fresh = copy.build_index(max_box_extent=extent)
            assert index_answers(mod.index(), mod, probes) == index_answers(fresh, copy, probes)
            # The monitor's answers are the from-scratch ones.
            windows = {}
            for standing in monitor.standing_queries:
                lo, hi = windows[standing.key] = monitor.resolve_window(standing.key)
                assert monitor.answers(standing.key) == reference_answer(
                    mod, standing.query_id, lo, hi, standing.variant
                )
            # One WAL frame per mutation; a restore is the live store.
            frames = registry.get("repro_persistence_wal_appends_total").value
            assert frames == mod.revision - base
            restored = restore(data_dir).mod
            assert restored.revision == mod.revision
            assert restored.changelog_records() == mod.changelog_records()
            for standing in monitor.standing_queries:
                lo, hi = windows[standing.key]
                assert reference_answer(
                    restored, standing.query_id, lo, hi, standing.variant
                ) == monitor.answers(standing.key)
        durable.close()


# ---------------------------------------------------------------------------
# Engagement: the tick runs batch-shaped.
# ---------------------------------------------------------------------------


def track_fleet(monitor, world):
    for query_id in world.query_ids:
        monitor.register(query_id, sliding=5.0)
    for object_id in world.mod.object_ids:
        monitor.track(
            object_id, max_speed=world.max_speed, minimum_radius=world.uncertainty_radius
        )


def test_a_durable_service_and_its_monitor_load_one_index_across_ticks(tmp_path):
    world = streaming_fleet(
        num_vehicles=30, num_queries=3, horizon_minutes=10.0, num_batches=4, seed=9
    )
    mod = world.mod

    async def ticks():
        service = QueryService(mod, data_dir=tmp_path, persistence_fsync="always")
        async with service:
            monitor = ContinuousMonitor(mod, registry=service.registry)
            track_fleet(monitor, world)
            service.attach_monitor(monitor)
            metrics = service.registry
            fsyncs = metrics.get("repro_persistence_wal_fsyncs_total").value
            for number, batch in enumerate(world.batches):
                for object_id, reports in batch.items():
                    monitor.ingest(object_id, reports)
                revision = mod.revision
                assert len(monitor.apply().changed_ids) == len(mod)
                assert mod.revision == revision + len(mod)
                # The whole tick is one WAL write, fsynced once.
                assert metrics.get("repro_persistence_wal_fsyncs_total").value == (
                    fsyncs + number + 1
                )
                _, hi = mod.common_time_span()
                requests = [PlannedStatement(q, hi - 5.0, hi) for q in world.query_ids]
                responses = await service.submit_all(requests)
                oracle = QueryEngine(MovingObjectsDatabase(list(mod)))
                for response in responses:
                    request = response.request
                    assert response.answer == oracle.answer(
                        request.query_id, request.t_start, request.t_end
                    )
            snapshot = metrics.snapshot()["repro_engine_index_build_seconds"]
            assert snapshot["count"] == 1
            assert monitor.engine.index is service.pool.single_engine().index

    asyncio.run(ticks())


def test_a_one_vehicle_batch_appends_exactly_its_new_boxes():
    world = streaming_fleet(
        num_vehicles=30, num_queries=2, horizon_minutes=10.0, num_batches=2, seed=4
    )
    mod = world.mod
    monitor = ContinuousMonitor(mod)
    track_fleet(monitor, world)
    extent = auto_extent(mod)
    for object_id, reports in world.batches[0].items():
        monitor.ingest(object_id, reports)
    monitor.apply()
    tree = mod.index()
    entries, compactions = len(tree), tree.compactions
    reporter = mod.object_ids[5]
    old = mod.get(reporter)
    monitor.ingest(reporter, world.batches[1][reporter])
    assert monitor.apply().changed_ids == (reporter,)
    new_boxes = [
        entry
        for entry in segment_boxes(mod.get(reporter), max_extent=extent)
        if entry.box.t_min >= old.end_time - TIME_TOLERANCE
    ]
    assert new_boxes
    assert mod.index() is tree and tree.compactions == compactions
    assert len(tree) == entries + len(new_boxes)


def test_concurrent_engines_patch_the_shared_index_once_per_revision():
    world = streaming_fleet(
        num_vehicles=20, num_queries=2, horizon_minutes=8.0, num_batches=1, seed=6
    )
    mod = world.mod
    extent = auto_extent(mod)
    mod.index()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for step in range(4):
            mod.upsert_many(
                mutated(mod, "extend", pick, 0.1 * step, "") for pick in range(len(mod))
            )
            barrier, actions = threading.Barrier(8), []

            def sync():
                barrier.wait(timeout=10)
                actions.append(mod.sync_index()[1])

            threads = [threading.Thread(target=sync) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            patched = [action for action in actions if action != "current"]
            assert len(actions) == 8 and patched in (["patch"], ["compact"])
            copy = MovingObjectsDatabase(list(mod))
            assert len(mod.index()) == len(copy.build_index("rtree", max_box_extent=extent))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("standing", [1, 6])
def test_one_fleet_span_scan_per_apply(monkeypatch, standing):
    world = streaming_fleet(
        num_vehicles=12, num_queries=3, horizon_minutes=10.0, num_batches=1, seed=2
    )
    monitor = ContinuousMonitor(world.mod)
    for index in range(standing):
        options = {"sliding": 2.0 + index} if index % 2 else {"window": (1.0, 3.0 + index)}
        monitor.register(world.query_ids[index % 3], **options)
    scans = []
    original = MovingObjectsDatabase.common_time_span
    monkeypatch.setattr(
        MovingObjectsDatabase,
        "common_time_span",
        lambda self: scans.append(1) or original(self),
    )
    monitor.apply(trajectories=[world.mod.get(world.mod.object_ids[-1])])
    assert len(scans) == 1
