"""Durable tier walkthrough: WAL + snapshots, a crash, a warm restart.

Runs one store through a full durability lifecycle:

1. attach a ``PersistentStore`` to a fleet MOD and mutate it (every change
   lands in the write-ahead log synchronously);
2. checkpoint (publish an atomic columnar snapshot, truncate the WAL),
   then keep mutating so a WAL tail exists past the snapshot;
3. simulate a power loss mid-append by writing half a frame to the WAL;
4. ``restore()`` the directory in a "new process": the torn tail is
   dropped, the tail frames replay, and the restored store's revision,
   changelog, and UQ31/32/33 answers match the pre-crash original;
5. do the same through ``QueryService(data_dir=...)`` — the serving-stack
   wiring with background checkpoints.

Run with::

    python examples/durable_restart.py

See ``docs/persistence.md`` for the on-disk formats and the operations
runbook.
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path

import numpy as np

from _support import scaled
from repro.engine import QueryEngine
from repro.persistence import PersistentStore, restore, scan_wal, wal_path
from repro.query_language import PlannedStatement
from repro.service import QueryService
from repro.trajectories.trajectory import UncertainTrajectory
from repro.workloads.random_waypoint import RandomWaypointConfig, generate_trajectories
from repro.trajectories.mod import MovingObjectsDatabase


def build_fleet() -> MovingObjectsDatabase:
    config = RandomWaypointConfig(
        num_objects=scaled(40, 10), segments_per_trajectory=4, seed=17
    )
    return MovingObjectsDatabase(generate_trajectories(config))


def wander(mod: MovingObjectsDatabase, object_id: object, rng) -> None:
    """Replace one trajectory with a slightly different motion plan."""
    old = mod.get(object_id)
    waypoints = [
        (s.x + rng.uniform(-1, 1), s.y + rng.uniform(-1, 1), s.t)
        for s in old.samples
    ]
    mod.replace_trajectory(
        UncertainTrajectory(object_id, waypoints, old.radius, old.pdf)
    )


def answers(mod: MovingObjectsDatabase, query_id: object):
    lo, hi = mod.common_time_span()
    engine = QueryEngine(mod)
    return {
        "UQ31 sometime": engine.answer(query_id, lo, hi, variant="sometime"),
        "UQ32 always": engine.answer(query_id, lo, hi, variant="always"),
        "UQ33 >=25%": engine.answer(query_id, lo, hi, variant="fraction", fraction=0.25),
    }


def durable_session_then_crash(data_dir: Path) -> MovingObjectsDatabase:
    rng = np.random.default_rng(5)
    mod = build_fleet()
    print(f"fleet: {len(mod)} trajectories, revision {mod.revision}")

    # 1. Attach the durable tier: from here on, every mutation is one
    #    checksummed WAL frame before the mutating call returns.
    store = PersistentStore(data_dir, mod, fsync="batch")
    for _ in range(3):
        wander(mod, mod.object_ids[0], rng)
    store.flush()
    print(f"after 3 mutations: WAL holds {store.wal.frame_count} frame(s)")

    # 2. Checkpoint: snapshot published atomically, WAL truncated.
    info = store.checkpoint()
    print(
        f"checkpoint: snapshot revision {info.revision}, "
        f"{info.objects} objects / {info.samples} samples / {info.bytes} bytes; "
        f"WAL now {store.wal.frame_count} frame(s)"
    )

    # 3. More mutations past the snapshot -> a WAL tail to replay.
    for object_id in mod.object_ids[1:4]:
        wander(mod, object_id, rng)
    store.flush()
    print(f"post-snapshot tail: {store.wal.frame_count} frame(s)")

    # 4. The crash: power dies while a frame is mid-write. Nothing is
    #    closed cleanly; the WAL ends in garbage.
    with open(wal_path(data_dir), "ab") as handle:
        handle.write(b"\x38\x00\x00\x00one-half-of-a-frame-then-darkness")
    print("simulated power loss mid-append (torn final frame)\n")
    return mod


def warm_restart(data_dir: Path, original: MovingObjectsDatabase) -> None:
    # 5. The "next process": restore = newest snapshot + WAL-tail replay.
    scan = scan_wal(wal_path(data_dir))
    print(
        f"scan_wal: {len(scan.frames)} valid frame(s), "
        f"{scan.dropped_bytes} torn byte(s) to drop"
    )
    result = restore(data_dir)
    print(
        f"restore: snapshot revision {result.snapshot.revision} + "
        f"{result.replayed_frames} replayed frame(s) "
        f"in {result.seconds * 1000:.1f} ms"
    )
    assert result.mod.revision == original.revision
    assert result.mod.changelog_records() == original.changelog_records()
    query_id = original.object_ids[0]
    before, after = answers(original, query_id), answers(result.mod, query_id)
    assert before == after
    print(f"restored revision {result.mod.revision} == pre-crash revision")
    for name, answer in after.items():
        print(f"  {name}: {len(answer)} neighbor(s) — identical pre/post crash")


async def service_wiring(data_dir: Path) -> None:
    # The same tier through the serving stack: restore on start, WAL while
    # serving, checkpoint on demand / in the background, final checkpoint
    # on clean shutdown.
    async with QueryService(data_dir=data_dir) as service:
        mod = service.mod
        lo, hi = mod.common_time_span()
        response = await service.submit(PlannedStatement(mod.object_ids[0], lo, hi))
        print(
            f"\nQueryService(data_dir=...): restored revision {mod.revision}, "
            f"served {len(response.answer)} neighbor(s)"
        )
        info = await service.checkpoint()
        print(f"service checkpoint at revision {info.revision}")
        appended = service.metrics_snapshot()["repro_persistence_snapshots_total"]
        print(f"snapshots published this service life: {appended['value']:.0f}")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="durable-restart-") as tmp:
        data_dir = Path(tmp) / "example-data"
        original = durable_session_then_crash(data_dir)
        warm_restart(data_dir, original)
        asyncio.run(service_wiring(data_dir))


if __name__ == "__main__":
    main()
