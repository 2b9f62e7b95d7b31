"""The WAL's frame index, byte-copy truncation and extension frames.

The log keeps each frame's revision and end offset, so a checkpoint's
truncation is a bisection plus a CRC-walked byte copy, and a ``replace``
that only appends samples to the trajectory the log last wrote is logged as
an extension frame carrying just the new samples.  The property below
drives random whole and extension appends, removals, snapshot captures,
truncations below, inside and above the log, reopens and torn tails, and
checks after every step that the file holds exactly the frames it should,
that a reopened log indexes it as the live one does, and that a restore is
the live store.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import QueryEngine
from repro.obs.metrics import MetricsRegistry
from repro.persistence import (
    PersistenceError,
    PersistentStore,
    WriteAheadLog,
    restore,
    scan_wal,
    wal_path,
)
from repro.persistence import wal as wal_module
from repro.service import QueryService
from repro.streaming import ContinuousMonitor
from repro.trajectories.mod import ChangeRecord, MovingObjectsDatabase
from repro.trajectories.trajectory import UncertainTrajectory
from repro.workloads.scenarios import streaming_fleet

IDS = ("a", "b", "c", "d")


def whole(object_id, salt, end=60.0):
    """A trajectory sharing no sample object with any other."""
    offset = 3.0 * IDS.index(object_id) + 0.25 * salt
    return UncertainTrajectory(
        object_id,
        [(offset, 1.0, 0.0), (offset + 4.0, 2.0 + salt, end / 2), (offset + 1.0, 6.0, end)],
        0.5,
    )


def extension(trajectory, salt):
    """``trajectory`` plus 0–2 samples, sharing its sample objects."""
    last = trajectory.samples[-1]
    tail = [
        (last.x + 0.5 * step, last.y - salt * 0.1, last.t + step)
        for step in range(1, abs(salt) % 3 + 1)
    ]
    radius = trajectory.radius + (0.1 if salt < 0 else 0.0)
    return trajectory.extended(tail, radius if salt < 0 else None)


def assert_same_store(restored, live):
    assert restored.revision == live.revision
    assert restored.changelog_records() == live.changelog_records()
    assert restored.object_ids == live.object_ids
    for object_id in live.object_ids:
        assert restored.get(object_id).samples == live.get(object_id).samples
        assert restored.get(object_id).radius == live.get(object_id).radius
        assert restored.object_revision(object_id) == live.object_revision(object_id)


def uq31(mod):
    lo, hi = mod.common_time_span()
    engine = QueryEngine(mod)
    return [engine.answer(query, lo, hi, variant="sometime") for query in mod.object_ids[:2]]


def assert_frames(scan, expected):
    """The scanned frames are the expected ``(record, trajectory, is_extension)``."""
    assert scan.dropped_bytes == 0
    assert [frame.record for frame in scan.frames] == [record for record, _, _ in expected]
    for frame, (record, trajectory, is_extension) in zip(scan.frames, expected):
        assert (frame.extension is not None) == is_extension, record
        if trajectory is None:
            assert frame.trajectory is None and frame.extension is None
        elif is_extension:
            count, end_time, tail, radius, _ = frame.extension
            assert tail == [(s.x, s.y, s.t) for s in trajectory.samples[count:]]
            assert (end_time, radius) == (trajectory.samples[count - 1].t, trajectory.radius)
        else:
            assert frame.trajectory.samples == trajectory.samples


# Extensions weighted up: a reopen, a whole replacement or a removal makes
# the next frame of that object whole again.
STEPS = (
    ("whole", "remove", "snapshot", "reopen", "torn")
    + ("extend",) * 4
    + ("truncate",) * 2
)

steps = st.lists(
    st.tuples(st.sampled_from(STEPS), st.sampled_from(IDS), st.integers(-3, 7)),
    min_size=4,
    max_size=32,
)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(script=steps)
def test_index_truncation_and_extension_frames_keep_the_log_and_restore_exact(
    tmp_path_factory, script
):
    data_dir = tmp_path_factory.mktemp("wal-delta")
    path = wal_path(data_dir)
    mod = MovingObjectsDatabase([whole(object_id, 0) for object_id in IDS])
    registry = MetricsRegistry()
    store = PersistentStore(data_dir, mod, fsync="never", registry=registry)
    snapshot = mod.revision  # the baseline snapshot adopting the store
    frames = []  # (record, trajectory, is_extension) the file should hold
    written = set()  # objects the open log has written a frame for
    extensions = 0
    for number, (step, object_id, salt) in enumerate(script):
        if step in ("whole", "extend"):
            extend = step == "extend" and object_id in mod
            if extend:
                mod.replace_trajectory(extension(mod.get(object_id), salt))
            else:
                mod.upsert(whole(object_id, number + 1))
            is_extension = extend and object_id in written
            extensions += is_extension
            written.add(object_id)
            frames.append((mod.changelog_records()[-1], mod.get(object_id), is_extension))
        elif step == "remove" and object_id in mod and len(mod) > 2:
            mod.remove(object_id)
            written.discard(object_id)
            frames.append((mod.changelog_records()[-1], None, False))
        elif step == "snapshot":
            # A capture the WAL is not truncated to: later frames follow it.
            snapshot = store.snapshotter.write(mod).revision
        elif step in ("truncate", "torn"):
            if step == "torn":
                store.flush()
                with open(path, "ab") as handle:
                    handle.write(b"\x30\x00\x00\x00torn-" + bytes([salt % 256]))
            # Below, inside or at the snapshot; above the log when that is safe.
            above = salt > 3 and snapshot == mod.revision
            cut = mod.revision + salt if above else max(0, snapshot - abs(salt))
            kept = [frame for frame in frames if frame[0].revision > cut]
            assert store.wal.truncate_through(cut) == len(frames) - len(kept)
            frames = kept
        elif step == "reopen":
            store.close()
            store = PersistentStore(data_dir, mod, fsync="never", registry=registry)
            written.clear()
        store.flush()
        assert_frames(scan_wal(path), frames)
        with WriteAheadLog(path, fsync="never") as reopened:
            assert reopened.frame_index == store.wal.frame_index
        assert [revision for revision, _ in store.wal.frame_index] == [
            record.revision for record, _, _ in frames
        ]
        restored = restore(data_dir).mod
        assert_same_store(restored, mod)
        assert uq31(restored) == uq31(mod)
    assert registry.get("repro_persistence_wal_extension_frames_total").value == extensions
    store.close()


def _append_through_store(data_dir):
    mod = MovingObjectsDatabase()
    store = PersistentStore(data_dir, mod, fsync="never")
    for object_id in IDS:
        mod.add(whole(object_id, 0))
    for salt in range(1, 4):
        for object_id in IDS:
            mod.replace_trajectory(extension(mod.get(object_id), salt))
    return mod, store


def test_truncation_decodes_and_encodes_nothing(tmp_path, monkeypatch):
    mod, store = _append_through_store(tmp_path)
    store.flush()
    before = scan_wal(wal_path(tmp_path)).frames
    calls = []
    for name in ("_decode_payload", "_encode_frame"):
        monkeypatch.setattr(wal_module, name, lambda *args, name=name: calls.append(name))
    with open(wal_path(tmp_path), "ab") as handle:
        handle.write(b"\x10\x00torn")
    assert store.wal.truncate_through(6) == 6
    assert store.wal.truncate_through(6) == 0
    assert calls == []
    monkeypatch.undo()
    after = scan_wal(wal_path(tmp_path))
    assert after.dropped_bytes == 0
    assert [frame.record for frame in after.frames] == [frame.record for frame in before[6:]]
    store.close()


@pytest.mark.parametrize("wrong", ["count", "end_time"])
def test_an_extension_frame_on_the_wrong_base_refuses_to_restore(tmp_path, wrong):
    base = whole("a", 0)
    extended = base.extended([(9.0, 9.0, 70.0)])
    if wrong == "count":
        claimed = base.extended([(8.0, 8.0, 65.0)])
    else:
        claimed = UncertainTrajectory(
            "a", [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 2.0, 59.0)], 0.5
        )
    with WriteAheadLog(wal_path(tmp_path)):
        pass
    with open(wal_path(tmp_path), "ab") as handle:
        handle.write(wal_module._encode_frame(ChangeRecord(1, "add", "a"), base))
        handle.write(
            wal_module._encode_frame(ChangeRecord(2, "replace", "a", 60.0), extended, claimed)
        )
    with pytest.raises(PersistenceError, match=r"revision 2 of object 'a'.*extension's base"):
        restore(tmp_path)


def test_a_durable_service_logs_every_tick_after_the_first_as_extensions(tmp_path):
    world = streaming_fleet(
        num_vehicles=24, num_queries=3, horizon_minutes=10.0, num_batches=4,
        batch_minutes=1.0, reports_per_batch=1, seed=3,
    )
    mod = world.mod

    async def ticks():
        service = QueryService(mod, data_dir=tmp_path, persistence_fsync="batch")
        async with service:
            monitor = ContinuousMonitor(mod, registry=service.registry)
            for query_id in world.query_ids:
                monitor.register(query_id, sliding=5.0)
            for object_id in mod.object_ids:
                monitor.track(
                    object_id, max_speed=world.max_speed,
                    minimum_radius=world.uncertainty_radius,
                )
            service.attach_monitor(monitor)
            metrics = service.registry
            for number, batch in enumerate(world.batches):
                before = metrics.get("repro_persistence_wal_bytes_total").value
                for object_id, reports in batch.items():
                    monitor.ingest(object_id, reports)
                monitor.apply()
                if number:
                    written = metrics.get("repro_persistence_wal_bytes_total").value - before
                    assert written / len(mod) < 200
            service.persistence.flush()
            extensions = metrics.get("repro_persistence_wal_extension_frames_total").value
            assert extensions == len(mod) * (len(world.batches) - 1)
            seen = set()
            for frame in scan_wal(wal_path(tmp_path)).frames:
                object_id = frame.record.object_id
                assert (frame.extension is not None) == (object_id in seen)
                seen.add(object_id)
            assert_same_store(restore(tmp_path).mod, mod)

    asyncio.run(ticks())
