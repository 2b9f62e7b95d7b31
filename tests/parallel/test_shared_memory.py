"""Shared-memory export lifecycle: ownership, patches, and exactness.

The :class:`~repro.trajectories.shared.SharedColumnarStore` owns named
``/dev/shm`` segments on behalf of the process-backed sharded engine; these
tests pin the contract around that ownership — segments are unlinked on
``close()`` *and* on garbage collection, close is idempotent, patch syncs
advance the revision workers rebuild on, long patch chains rebase — and
the correctness property that makes zero-copy serving trustworthy: any
upsert/remove/replace sequence keeps answers computed over the shared
segments byte-identical to the single engine's.
"""

import gc
import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import QueryEngine
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.shared import AttachedPack, SharedColumnarStore
from repro.trajectories.trajectory import TrajectorySample, UncertainTrajectory
from repro.uncertainty.uniform import UniformDiskPDF
from repro.workloads.scenarios import sharded_fleet

import numpy as np


def segment_exists(name: str) -> bool:
    """Whether a POSIX shared-memory segment of this name still exists."""
    return os.path.exists(os.path.join("/dev/shm", name))


def nudged(trajectory, dx, dy=0.0):
    return UncertainTrajectory(
        trajectory.object_id,
        [
            TrajectorySample(s.x + dx, s.y + dy, s.t)
            for s in trajectory.samples
        ],
        trajectory.radius,
        trajectory.pdf,
    )


@pytest.fixture()
def fleet():
    return sharded_fleet(num_districts=2, vehicles_per_district=6)


def test_attached_columns_match_the_parent_store(fleet):
    mod, _ = fleet
    with SharedColumnarStore(mod) as shared:
        pack = AttachedPack(shared.descriptor())
        reference = mod.columnar()
        assert set(pack.ids) == set(mod.object_ids)
        for object_id in mod.object_ids:
            for ours, theirs in zip(
                pack.columns(object_id), reference.columns(object_id)
            ):
                assert np.array_equal(ours, theirs)
            assert pack.radius_of(object_id) == reference.radius_of(object_id)
        pack.close()


def test_patch_sync_advances_revision_without_rebasing(fleet):
    mod, _ = fleet
    with SharedColumnarStore(mod) as shared:
        base_revision = shared.revision
        assert len(shared.segment_names()) == 1
        assert shared.sync() is False  # unchanged store: no-op

        moved = mod.object_ids[0]
        mod.replace_trajectory(nudged(mod.get(moved), 0.5))
        assert shared.sync() is True
        assert shared.revision == mod.revision > base_revision
        assert len(shared.segment_names()) == 2  # base + one patch

        pack = AttachedPack(shared.descriptor())
        assert pack.revision == mod.revision
        ts, xs, ys = pack.columns(moved)
        rts, rxs, rys = mod.columnar().columns(moved)
        assert np.array_equal(xs, rxs) and np.array_equal(ys, rys)
        assert np.array_equal(ts, rts)
        pack.close()


def test_removals_ride_patches_and_long_chains_rebase(fleet):
    mod, _ = fleet
    with SharedColumnarStore(mod, max_patch_segments=3) as shared:
        victim = mod.object_ids[-1]
        mod.remove(victim)
        shared.sync()
        pack = AttachedPack(shared.descriptor())
        assert victim not in pack.ids
        pack.close()

        survivor = mod.object_ids[0]
        lengths = []
        for step in range(1, 6):
            mod.replace_trajectory(nudged(mod.get(survivor), 0.1 * step))
            shared.sync()
            lengths.append(len(shared.segment_names()))
        # The chain grows by one patch per sync until it would exceed
        # max_patch_segments, then rebases into one fresh base edition.
        assert max(lengths) == 4
        assert 1 in lengths
        pack = AttachedPack(shared.descriptor())
        assert np.array_equal(
            pack.columns(survivor)[1], mod.columnar().columns(survivor)[1]
        )
        pack.close()


def test_close_unlinks_segments_and_is_idempotent(fleet):
    mod, _ = fleet
    shared = SharedColumnarStore(mod)
    descriptor = shared.descriptor()
    names = shared.segment_names()
    assert all(segment_exists(name) for name in names)
    shared.close()
    shared.close()  # double close must be a no-op
    assert shared.segment_names() == ()
    assert not any(segment_exists(name) for name in names)
    with pytest.raises(FileNotFoundError):
        AttachedPack(descriptor)
    with pytest.raises(ValueError):
        shared.descriptor()
    with pytest.raises(ValueError):
        shared.sync()


def test_garbage_collection_unlinks_segments(fleet):
    mod, _ = fleet
    shared = SharedColumnarStore(mod)
    names = shared.segment_names()
    assert all(segment_exists(name) for name in names)
    del shared
    gc.collect()
    assert not any(segment_exists(name) for name in names)


def test_worker_rebuilds_when_the_export_revision_moves(fleet):
    """One rebuild per revision: cold, then only after the store changed."""
    from repro.parallel.worker import ShardTask, run_shard_task

    mod, query_ids = fleet
    lo, hi = mod.common_time_span()
    query_id = query_ids[0]
    with SharedColumnarStore(mod) as shared:
        def serve():
            shared.sync()
            return run_shard_task(ShardTask(
                token=("test-rebuild",),
                shard=0,
                store=shared.descriptor(),
                cache_size=64,
                queries=((query_id, mod.default_band_width(query_id)),),
                t_start=lo,
                t_end=hi,
            ))

        first = serve()
        assert first.rebuilt and first.rebuild_seconds > 0
        assert first.revision == shared.revision
        steady = serve()
        assert not steady.rebuilt and steady.rebuild_seconds == 0.0
        assert steady.outcomes[0].answer == first.outcomes[0].answer

        mod.replace_trajectory(nudged(mod.get(query_id), 0.3))
        second = serve()
        assert second.rebuilt
        assert second.revision == shared.revision > first.revision
        assert not serve().rebuilt
        expected = QueryEngine(mod).answer(query_id, lo, hi)
        assert second.outcomes[0].answer == expected


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


_EXAMPLES = itertools.count()


@settings(max_examples=10, deadline=None)
@given(ops=operations)
def test_any_mutation_sequence_keeps_shared_answers_exact(ops):
    """Upsert/remove/replace sequences never desync the shared export.

    Whether one change or several ride a sync, an attachment lists the
    store's objects in the store's own insertion order (a removed and
    re-added id moves to the end in both), and a worker serving from it
    answers exactly as the single engine does.
    """
    from repro.parallel.worker import ShardTask, run_shard_task

    pdf = UniformDiskPDF(0.2)
    mod = MovingObjectsDatabase(
        UncertainTrajectory(
            f"o{index}",
            [
                TrajectorySample(3.0 * index, 2.0 * index + t, t)
                for t in (0.0, 5.0, 10.0)
            ],
            0.2,
            pdf,
        )
        for index in range(4)
    )
    # A worker keeps one engine per token and trusts it while the revision
    # matches, so each example's store needs its own token, as each
    # ShardedEngine instance has (two examples can reach one revision).
    token = ("test-mutations", next(_EXAMPLES))
    with SharedColumnarStore(mod, max_patch_segments=2) as shared:
        for kind, which, coord, sync_now in [*ops, ("replace", 0, 1.0, True)]:
            object_id = f"o{which}"
            if kind == "remove":
                # Keep the store non-empty and o0 queryable throughout.
                if object_id != "o0" and object_id in mod and len(mod) > 2:
                    mod.remove(object_id)
            elif kind == "replace" and object_id in mod:
                mod.replace_trajectory(nudged(mod.get(object_id), coord, 0.5))
            else:
                mod.upsert(UncertainTrajectory(
                    object_id,
                    [
                        TrajectorySample(coord, coord + t, t)
                        for t in (0.0, 5.0, 10.0)
                    ],
                    0.2,
                    pdf,
                ))
            if not sync_now:
                continue
            shared.sync()
            pack = AttachedPack(shared.descriptor())
            assert pack.ids == tuple(mod.object_ids)
            pack.close()
            served = run_shard_task(ShardTask(
                token=token,
                shard=0,
                store=shared.descriptor(),
                cache_size=64,
                queries=(("o0", mod.default_band_width("o0")),),
                t_start=0.0,
                t_end=10.0,
            ))
            assert served.revision == mod.revision
            assert served.outcomes[0].answer == QueryEngine(mod).answer(
                "o0", 0.0, 10.0
            )


def test_full_run_leaves_no_tracker_noise_or_segments(tmp_path):
    """An end-to-end process-backend run exits with silent, clean stderr.

    Runs in a subprocess so the assertion covers interpreter shutdown: no
    resource_tracker KeyErrors or leak warnings, no ``Exception ignored``
    from ``SharedMemory.__del__``, and nothing left under ``/dev/shm``.
    The script lives in a real file because the spawn start method has to
    re-import the main module in every worker.
    """
    script = tmp_path / "shm_run.py"
    script.write_text(
        """
from repro.parallel import ShardedEngine
from repro.workloads.scenarios import sharded_fleet

def main():
    mod, query_ids = sharded_fleet(num_districts=2, vehicles_per_district=6)
    lo, hi = mod.common_time_span()
    with ShardedEngine(mod, 2, backend="process", max_workers=2) as engine:
        engine.answer_batch(query_ids, lo, hi)
        names = engine.shared_segments()
    print("SEGMENTS:" + ",".join(names))

if __name__ == "__main__":
    main()
"""
    )
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
        + environment.get("PYTHONPATH", "").split(os.pathsep)
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=environment,
    )
    assert completed.returncode == 0, completed.stderr
    assert "resource_tracker" not in completed.stderr, completed.stderr
    assert "Exception ignored" not in completed.stderr, completed.stderr
    names = completed.stdout.split("SEGMENTS:", 1)[1].strip().split(",")
    assert names and names[0]
    assert not any(segment_exists(name) for name in names if name)
