"""Benchmark: warm restart from the durable tier vs a cold rebuild.

Measures the restart story of ``repro.persistence`` at the paper-scale
store: one N-object random-waypoint MOD is made durable (snapshot + a WAL
tail of recent mutations) and exported to JSON, then the two restart paths
race to a query-ready store (MOD + packed columns):

* **cold rebuild** — ``load_json`` (parse + per-sample constructor
  validation) followed by a from-scratch columnar pack: what every process
  start paid before the durable tier existed;
* **restore** — ``repro.persistence.restore`` (map the snapshot columns,
  replay the WAL tail) followed by the pack, which borrows the mmap
  column views instead of re-extracting sample tuples.

Equality is asserted before any timing is reported: the restored store
must match the live original in revision, changelog, per-object samples,
*and* UQ31/32/33 answers through a :class:`~repro.engine.QueryEngine`
(the cold rebuild must match on samples and answers too), so the gated
speedup can never come from a divergent store.

A second case times the checkpoint of a streaming store: the same N
objects are logged, checkpointed, then extended by one sample each on two
ticks (2N extension frames), and ``checkpoint()`` — snapshot, WAL
truncation, prune — is timed from identically prepared copies of that
directory, after a restore of the checkpointed copy is asserted equal to
the live store.  Run with::

    PYTHONPATH=src python benchmarks/bench_persistence.py
    PYTHONPATH=src python benchmarks/bench_persistence.py --quick

The regression gate pins ``restore_speedup_vs_rebuild >= 3.0`` and
``wal_bytes_per_extension <= 200`` at N=2000 (``baselines/persistence.json``).
"""

from __future__ import annotations

import argparse
import gc
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.engine import QueryEngine
from repro.persistence import PersistentStore, restore
from repro.trajectories.io import load_json, save_json
from repro.trajectories.mod import MovingObjectsDatabase
from repro.workloads.random_waypoint import RandomWaypointConfig, generate_trajectories

from common import default_output_path, write_record

BENCH_NAME = "persistence"

#: WAL frames left unfolded past the snapshot, so a restore always
#: exercises replay, not just the mmap path.
WAL_TAIL_MUTATIONS = 25

#: Streaming ticks of one-sample extensions before the timed checkpoint.
EXTENSION_TICKS = 2

#: Timed repetitions per path; the record keeps the best (GC is collected
#: before each run so a cold rebuild's object churn cannot bill its
#: collection pauses to the restore window).
TIMING_REPEATS = 3


def build_mod(num_objects: int, seed: int = 7) -> MovingObjectsDatabase:
    config = RandomWaypointConfig(
        num_objects=num_objects, segments_per_trajectory=10, seed=seed
    )
    return MovingObjectsDatabase(generate_trajectories(config))


def best_of(fn) -> float:
    """Best wall-clock seconds of :data:`TIMING_REPEATS` runs of ``fn``."""
    best = float("inf")
    for _ in range(TIMING_REPEATS):
        gc.collect()
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def make_durable(mod: MovingObjectsDatabase, data_dir: Path) -> None:
    """Checkpoint the store, then leave a WAL tail of recent mutations."""
    store = PersistentStore(data_dir, mod, fsync="never")
    store.checkpoint()
    ids = mod.object_ids
    for i in range(WAL_TAIL_MUTATIONS):
        mod.replace_trajectory(mod.get(ids[i % len(ids)]))
    store.flush()
    store.close()


def uq3x_answers(mod: MovingObjectsDatabase, query_ids: List[object]) -> List[object]:
    lo, hi = mod.common_time_span()
    engine = QueryEngine(mod)
    answers: List[object] = []
    for query_id in query_ids:
        answers.append(engine.answer(query_id, lo, hi, variant="sometime"))
        answers.append(engine.answer(query_id, lo, hi, variant="always"))
        answers.append(
            engine.answer(query_id, lo, hi, variant="fraction", fraction=0.25)
        )
    return answers


def assert_equal_stores(
    restored: MovingObjectsDatabase,
    cold: Optional[MovingObjectsDatabase],
    live: MovingObjectsDatabase,
    query_ids: List[object],
) -> None:
    """The correctness half of the bench: all the stores must agree."""
    assert restored.revision == live.revision
    assert restored.changelog_records() == live.changelog_records()
    others = [restored] if cold is None else [restored, cold]
    expected = uq3x_answers(live, query_ids)
    for other in others:
        assert other.object_ids == live.object_ids
        for object_id in live.object_ids:
            assert other.get(object_id).samples == live.get(object_id).samples
        assert uq3x_answers(other, query_ids) == expected


def extension_tick(mod: MovingObjectsDatabase, tick: int) -> None:
    """Extend every object by one sample, as one streaming batch."""
    batch = []
    for trajectory in mod:
        last = trajectory.samples[-1]
        batch.append(trajectory.extended([(last.x + 0.1 * tick, last.y, last.t + 1.0)]))
    mod.upsert_many(batch)


def checkpoint_case(
    num_objects: int, query_ids: List[object], work_dir: Path
) -> Dict[str, float]:
    """Time ``checkpoint()`` after two ticks of one-sample extensions.

    The template directory holds a snapshot of the logged store and a WAL
    of ``EXTENSION_TICKS × N`` extension frames; every timed run attaches
    the live store to a fresh copy of it, so each checkpoint starts from
    the same bytes.
    """
    template = work_dir / "template"
    mod = MovingObjectsDatabase()
    store = PersistentStore(template, mod, fsync="never")
    mod.add_all(build_mod(num_objects))
    store.checkpoint()
    before = store.wal.size_bytes()
    for tick in range(1, EXTENSION_TICKS + 1):
        extension_tick(mod, tick)
    extension_bytes = store.wal.size_bytes() - before
    store.close()

    def checkpointed(run: int) -> Tuple[float, Path]:
        copy = work_dir / f"run-{run}"
        shutil.copytree(template, copy)
        attached = PersistentStore(copy, mod, fsync="never")
        gc.collect()
        started = time.perf_counter()
        attached.checkpoint()
        seconds = time.perf_counter() - started
        attached.close()
        return seconds, copy

    # Both sides of the checkpoint restore to the live store: the template
    # by replaying its extension frames, the copy from its new snapshot.
    assert_equal_stores(restore(template).mod, None, mod, query_ids)
    _, first = checkpointed(0)
    assert_equal_stores(restore(first).mod, None, mod, query_ids)
    best = min(checkpointed(run)[0] for run in range(1, TIMING_REPEATS + 1))
    return {
        "checkpoint_ms": best * 1000.0,
        "wal_bytes_per_extension": extension_bytes / (EXTENSION_TICKS * num_objects),
    }


def run_bench(
    quick: bool = False, num_objects: int | None = None
) -> Tuple[Dict, Dict[str, float]]:
    """Time cold rebuild vs restore; returns ``(config, metrics)``.

    N=2000 in both modes — the regression gate pins the speedup at the
    paper-scale store; ``quick`` only trims the equality-check width.
    """
    num_objects = num_objects or 2000
    query_count = 2 if quick else 6
    config = {
        "num_objects": num_objects,
        "wal_tail_mutations": WAL_TAIL_MUTATIONS,
        "timing_repeats": TIMING_REPEATS,
        "extension_ticks": EXTENSION_TICKS,
        "queries_checked": query_count,
        "quick": quick,
    }
    mod = build_mod(num_objects)
    query_ids = mod.object_ids[:: max(1, len(mod) // query_count)][:query_count]
    with tempfile.TemporaryDirectory(prefix="bench-persistence-") as tmp:
        data_dir = Path(tmp) / "data"
        json_path = Path(tmp) / "fleet.json"
        make_durable(mod, data_dir)
        save_json(mod, json_path)

        # Equality first (also warms imports and the OS page cache for both
        # paths, so the timed runs compare steady-state restarts).
        cold_mod, _ = load_json(json_path)
        restored = restore(data_dir)
        assert restored.replayed_frames == WAL_TAIL_MUTATIONS
        assert_equal_stores(restored.mod, cold_mod, mod, query_ids)

        rebuild_seconds = best_of(
            lambda: load_json(json_path)[0].columnar().pack()
        )
        restore_seconds = best_of(
            lambda: restore(data_dir).mod.columnar().pack()
        )
        result = restored
        checkpoint = checkpoint_case(num_objects, query_ids, Path(tmp) / "checkpoint")

    metrics = {
        "rebuild_ms": rebuild_seconds * 1000.0,
        "restore_ms": restore_seconds * 1000.0,
        "restore_replayed_frames": float(result.replayed_frames),
        "restore_speedup_vs_rebuild": rebuild_seconds / restore_seconds,
        **checkpoint,
    }
    print(
        f"N={num_objects}: cold rebuild {metrics['rebuild_ms']:7.1f} ms | "
        f"restore {metrics['restore_ms']:6.1f} ms "
        f"({metrics['restore_replayed_frames']:.0f} frames replayed) | "
        f"speedup {metrics['restore_speedup_vs_rebuild']:.2f}x"
    )
    print(
        f"N={num_objects}: checkpoint after {EXTENSION_TICKS} extension ticks "
        f"{metrics['checkpoint_ms']:6.1f} ms | "
        f"{metrics['wal_bytes_per_extension']:.1f} WAL bytes per extension"
    )
    return config, metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--objects", type=int, default=None,
        help="store size (default 2000; the gate is pinned at 2000)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="trim the equality-check width for smoke runs (same N)",
    )
    parser.add_argument(
        "--json", type=str, default=None,
        help=f"write the record to this JSON file (e.g. {default_output_path(BENCH_NAME)})",
    )
    args = parser.parse_args()

    print("warm restart (snapshot mmap + WAL replay) vs cold JSON rebuild")
    print("(store equality + UQ31/32/33 answer equality asserted before timing)")
    config, metrics = run_bench(quick=args.quick, num_objects=args.objects)
    if args.json:
        write_record(args.json, BENCH_NAME, config, metrics)
        print(f"  wrote {args.json}")


if __name__ == "__main__":
    main()
