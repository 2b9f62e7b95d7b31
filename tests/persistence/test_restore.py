"""Crash-injection and restore-equality tests for the durable tier.

The central oracle: after any crash the driver can inject (torn WAL tail,
half-written snapshot, garbage suffix), ``restore()`` must hand back a MOD
whose revision, changelog, and UQ31/32/33 answers are byte-identical to
the pre-crash original — that is what lets every revision-keyed layer
above resume as if the process never died.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import QueryEngine
from repro.persistence import (
    PersistenceError,
    PersistentStore,
    restore,
    snapshots_path,
    wal_path,
)
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import UncertainTrajectory
from repro.workloads.random_waypoint import RandomWaypointConfig, generate_trajectories


def fleet_mod(num=12, seed=7):
    config = RandomWaypointConfig(
        num_objects=num, segments_per_trajectory=2, seed=seed
    )
    return MovingObjectsDatabase(generate_trajectories(config))


def trajectory_like(object_id, rng, radius=0.5):
    waypoints = []
    x, y = rng.uniform(0, 40, size=2)
    for t in (0.0, 30.0, 60.0):
        waypoints.append((float(x), float(y), t))
        x += rng.uniform(-5, 5)
        y += rng.uniform(-5, 5)
    return UncertainTrajectory(object_id, waypoints, radius)


def uq3x_answers(mod, query_id):
    """UQ31/32/33 answers over the common span, straight off a QueryEngine."""
    lo, hi = mod.common_time_span()
    engine = QueryEngine(mod)
    return {
        "UQ31": engine.answer(query_id, lo, hi, variant="sometime"),
        "UQ32": engine.answer(query_id, lo, hi, variant="always"),
        "UQ33": engine.answer(query_id, lo, hi, variant="fraction", fraction=0.25),
    }


def assert_identical(restored, original):
    assert restored.revision == original.revision
    assert restored.object_ids == original.object_ids
    assert restored.changelog_records() == original.changelog_records()
    for object_id in original.object_ids:
        assert restored.object_revision(object_id) == original.object_revision(
            object_id
        )
        a, b = restored.get(object_id), original.get(object_id)
        assert [(s.x, s.y, s.t) for s in a.samples] == [
            (s.x, s.y, s.t) for s in b.samples
        ]
        assert a.radius == b.radius


class TestKillMidWrite:
    """The acceptance-criteria scenario: crash during an unsynced write."""

    def test_recovery_after_torn_final_frame(self, tmp_path):
        rng = np.random.default_rng(3)
        mod = fleet_mod()
        store = PersistentStore(tmp_path, mod, fsync="batch")
        query_id = mod.object_ids[0]
        # A running session: checkpoint mid-stream, then more mutations.
        mod.replace_trajectory(trajectory_like(mod.object_ids[1], rng))
        store.checkpoint()
        victim = mod.object_ids[2]
        removed = mod.remove(victim)
        mod.add(removed)
        mod.replace_trajectory(trajectory_like(mod.object_ids[3], rng))
        store.flush()
        pre_crash_answers = uq3x_answers(mod, query_id)
        # The crash: the process dies while appending one more frame — the
        # tail of the WAL is garbage, nothing was closed cleanly.
        with open(wal_path(tmp_path), "ab") as handle:
            handle.write(b"\x40\x00\x00\x00half-a-frame-then-power-loss")
        result = restore(tmp_path)
        assert result.dropped_bytes > 0
        assert result.replayed_frames == 3
        assert_identical(result.mod, mod)
        assert uq3x_answers(result.mod, query_id) == pre_crash_answers

    def test_recovery_after_half_written_snapshot(self, tmp_path):
        rng = np.random.default_rng(4)
        mod = fleet_mod()
        store = PersistentStore(tmp_path, mod, fsync="batch")
        mod.replace_trajectory(trajectory_like(mod.object_ids[0], rng))
        store.checkpoint()
        good = store.snapshotter.latest()
        mod.replace_trajectory(trajectory_like(mod.object_ids[1], rng))
        store.flush()
        answers = uq3x_answers(mod, mod.object_ids[2])
        # The crash: a later checkpoint died before publishing its
        # manifest; only an unrenamed tmp directory exists.
        half = snapshots_path(tmp_path) / ".tmp-000000000099-1234"
        half.mkdir()
        (half / "columns.f64").write_bytes(b"\x00" * 64)
        result = restore(tmp_path)
        assert result.snapshot.revision == good.revision
        assert result.replayed_frames == 1
        assert_identical(result.mod, mod)
        assert uq3x_answers(result.mod, mod.object_ids[2]) == answers

    def test_wal_only_recovery_without_any_snapshot(self, tmp_path):
        mod = MovingObjectsDatabase()
        store = PersistentStore(tmp_path, mod, fsync="batch")
        rng = np.random.default_rng(5)
        for i in range(6):
            mod.add(trajectory_like(f"obj-{i}", rng))
        mod.remove("obj-4")
        store.flush()
        result = restore(tmp_path)
        assert result.snapshot is None
        assert result.replayed_frames == 7
        assert_identical(result.mod, mod)


class TestRestoreEdges:
    def test_empty_directory_restores_empty_store(self, tmp_path):
        result = restore(tmp_path / "fresh")
        assert result.mod.revision == 0 and len(result.mod) == 0
        assert result.snapshot is None and result.replayed_frames == 0

    def test_disconnected_wal_is_an_error(self, tmp_path):
        mod = fleet_mod(num=4)
        store = PersistentStore(tmp_path, mod)
        store.checkpoint()
        rng = np.random.default_rng(6)
        mod.replace_trajectory(trajectory_like(mod.object_ids[0], rng))
        store.close()
        # Delete the snapshot the WAL tail connects to: the remaining older
        # history cannot meet the log.
        snapshot = store.snapshotter.latest()
        import shutil

        shutil.rmtree(snapshot.path)
        with pytest.raises(PersistenceError, match="does not connect"):
            restore(tmp_path)

    def test_attaching_a_mismatched_store_is_rejected(self, tmp_path):
        mod = fleet_mod(num=4)
        PersistentStore(tmp_path, mod).close(checkpoint=True)
        stranger = fleet_mod(num=3, seed=99)
        with pytest.raises(PersistenceError, match="tip"):
            PersistentStore(tmp_path, stranger)

    def test_restored_store_keeps_persisting(self, tmp_path):
        """restore → attach → mutate → restore again reaches the new tip."""
        mod = fleet_mod(num=5)
        PersistentStore(tmp_path, mod).close(checkpoint=True)
        rng = np.random.default_rng(8)
        first = restore(tmp_path)
        store = PersistentStore(tmp_path, first.mod)
        first.mod.replace_trajectory(trajectory_like(first.mod.object_ids[0], rng))
        store.close()
        second = restore(tmp_path)
        assert_identical(second.mod, first.mod)

    def test_restored_mod_reproduces_the_columns(self, tmp_path):
        """A restored MOD's columnar pack equals the original's.

        The restored store's per-object arrays are snapshot-mmap views, so
        this holds without re-reading a sample tuple.
        """
        mod = fleet_mod(num=6)
        PersistentStore(tmp_path, mod).close(checkpoint=True)
        restored = restore(tmp_path).mod.columnar()
        original = mod.columnar()
        for object_id in mod.object_ids:
            for left, right in zip(restored.columns(object_id), original.columns(object_id)):
                assert np.array_equal(left, right)
        assert restored.pack().ids == original.pack().ids


# ----------------------------------------------------------------------
# The restore-equality property.
# ----------------------------------------------------------------------

_ids = st.sampled_from(["alpha", "beta", "gamma", "delta"])
_ops = st.lists(
    st.tuples(st.sampled_from(["upsert", "remove", "replace"]), _ids, st.integers(0, 9)),
    min_size=1,
    max_size=24,
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(operations=_ops, checkpoint_after=st.integers(0, 24))
def test_restore_equality_property(tmp_path_factory, operations, checkpoint_after):
    """Any mutation sequence → snapshot + WAL replay == the live store.

    A checkpoint lands at an arbitrary point of the sequence, so the
    restore exercises every split between "folded into the snapshot" and
    "replayed from the log" — including all-snapshot and all-log.
    """
    data_dir = tmp_path_factory.mktemp("prop")
    mod = MovingObjectsDatabase()
    store = PersistentStore(data_dir, mod, fsync="never")
    rng = np.random.default_rng(42)
    for step, (op, object_id, salt) in enumerate(operations):
        replacement = trajectory_like(object_id, rng, radius=0.5 + 0.05 * salt)
        if op == "upsert":
            mod.upsert(replacement)
        elif op == "replace" and object_id in mod:
            mod.replace_trajectory(replacement)
        elif op == "remove" and object_id in mod:
            mod.remove(object_id)
        if step == checkpoint_after:
            store.checkpoint()
    store.flush()
    result = restore(data_dir)
    assert_identical(result.mod, mod)
    if len(mod) >= 2:
        try:
            mod.common_time_span()
        except ValueError:
            return
        query_id = mod.object_ids[0]
        assert uq3x_answers(result.mod, query_id) == uq3x_answers(mod, query_id)


class TestConcurrentCheckpoints:
    def test_parallel_checkpoints_against_a_live_writer(self, tmp_path):
        # A manual checkpoint racing the background checkpoint loop (two
        # executor threads) while a monitor thread streams mutations:
        # checkpoints serialize on the store's lock, snapshot capture is
        # revision-consistent, and nothing acknowledged is ever lost.
        import threading
        import time

        rng = np.random.default_rng(11)
        mod = fleet_mod(num=6)
        store = PersistentStore(tmp_path, mod, fsync="never")
        stop = threading.Event()
        errors = []

        def mutate():
            for _ in range(60):
                mod.replace_trajectory(trajectory_like(0, rng))
                time.sleep(0.001)  # a realistic ingest pause between fixes
            stop.set()

        def checkpoint_loop():
            try:
                while not stop.is_set():
                    store.checkpoint()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=mutate)] + [
            threading.Thread(target=checkpoint_loop) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        store.close(checkpoint=True)
        result = restore(tmp_path)
        assert_identical(result.mod, mod)
