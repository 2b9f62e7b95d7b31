"""Benchmark: splitting a batch across workers vs the bare single engine.

The :class:`repro.parallel.ShardedEngine` cuts the *batch* and evaluates
every slice against the whole store, so its answers are the single engine's
by construction and the only question is what the splitting costs or saves.
This bench runs cold batches (windows no engine has seen) of the
:func:`repro.workloads.scenarios.sharded_fleet` monitored vehicles through a
bare :class:`repro.engine.QueryEngine` and through each backend, on engines
whose one-time costs (index, worker spin-up, shared-memory export) are
already paid:

* ``serial_over_single`` — the in-process path over the bare engine.  The
  wrapper adds spans, counters and a result list to one ``prepare_batch``;
  CI pins it at 1.05 with no tolerance.
* ``thread_over_single`` (full runs) — the same with a two-thread
  preparation pool; reported, because two threads over one engine are not
  expected to beat one.
* ``process_w2_cold_over_single`` — two warm worker processes, half the
  batch each; reported (it depends on the cores the box has to give).
* ``process_warm_up_ms`` — worker spin-up + export + every worker's first
  attach and index build, which ``warm_up()`` pays ahead of the first batch.
* ``process_worker_rebuild_ms`` — what one worker pays after one store
  revision: re-attach the export and rebuild its index.

Equality with the bare engine is asserted on every backend before anything
is timed, and again on every timed batch.

Run with::

    PYTHONPATH=src python benchmarks/bench_sharded.py
    PYTHONPATH=src python benchmarks/bench_sharded.py --quick --json BENCH_sharded.json
"""

from __future__ import annotations

import argparse
import statistics
import time
from typing import Callable, Dict, List, Tuple

from repro.engine import QueryEngine, answer_of
from repro.parallel import ShardedEngine
from repro.trajectories.trajectory import TrajectorySample, UncertainTrajectory
from repro.workloads.scenarios import sharded_fleet

from common import default_output_path, write_record

BENCH_NAME = "sharded"


def fresh_windows(lo: float, hi: float, count: int) -> List[Tuple[float, float]]:
    """``count`` distinct windows, each 35% of the span: every one is cold."""
    width = 0.35 * (hi - lo)
    step = (hi - lo - width) / count
    return [(lo + k * step, lo + k * step + width) for k in range(count)]


def single_answers(engine: QueryEngine, query_ids, lo: float, hi: float) -> Dict:
    """The bare engine's batch path: one ``prepare_batch``, then each answer."""
    return {
        prepared.query_id: answer_of(prepared.context, "sometime")
        for prepared in engine.prepare_batch(query_ids, lo, hi)
    }


def race(
    name: str,
    contender: Callable[[float, float], Dict],
    single: QueryEngine,
    query_ids,
    windows: List[Tuple[float, float]],
    metrics: Dict[str, float],
) -> None:
    """Time ``contender`` against the bare engine, alternating who goes first.

    Both see each window for the first time, so every batch is cold; the
    contender's answers are compared with the bare engine's on every window.
    """
    ours: List[float] = []
    theirs: List[float] = []
    for position, (lo, hi) in enumerate(windows):
        order = ("single", name) if position % 2 else (name, "single")
        answers = {}
        for side in order:
            started = time.perf_counter()
            if side == "single":
                answers[side] = single_answers(single, query_ids, lo, hi)
                theirs.append(time.perf_counter() - started)
            else:
                answers[side] = contender(lo, hi)
                ours.append(time.perf_counter() - started)
        if answers[name] != answers["single"]:
            raise AssertionError(f"{name} answers diverged on window [{lo}, {hi}]")
    metrics[f"{name}_cold_ms_per_batch"] = statistics.median(ours) * 1e3
    metrics[f"{name}_over_single"] = statistics.median(ours) / statistics.median(theirs)
    metrics.setdefault("single_cold_ms_per_batch", statistics.median(theirs) * 1e3)
    print(
        f"  {name:12s} cold {metrics[f'{name}_cold_ms_per_batch']:7.1f} ms/batch"
        f"   {metrics[f'{name}_over_single']:.3f}x the bare engine"
        f" ({statistics.median(theirs) * 1e3:.1f} ms)"
    )


def run_bench(quick: bool = False) -> Tuple[Dict, Dict[str, float]]:
    """Run the races; returns ``(config, metrics)`` for the record schema."""
    if quick:
        num_districts, per_district, batches = 4, 12, 24
        backends = ["serial"]
    else:
        num_districts, per_district, batches = 9, 25, 40
        backends = ["serial", "thread"]
    mod, query_ids = sharded_fleet(
        num_districts=num_districts, vehicles_per_district=per_district
    )
    lo, hi = mod.common_time_span()
    # One disjoint set of windows per race: the bare engine runs in all of
    # them and must find each window cold every time.
    races = len(backends) + 1
    windows = fresh_windows(lo, hi, batches * races)
    config = {
        "districts": num_districts,
        "vehicles_per_district": per_district,
        "objects": len(mod),
        "queries": len(query_ids),
        "batches": batches,
        "process_workers": 2,
    }
    metrics: Dict[str, float] = {}
    single = QueryEngine(mod)
    expected = {query_id: single.answer(query_id, lo, hi) for query_id in query_ids}

    for lane, backend in enumerate(backends):
        with ShardedEngine(mod, 4, backend=backend, max_workers=2) as engine:
            engine.warm_up()
            if engine.answer_batch(query_ids, lo, hi).answers != expected:
                raise AssertionError(f"{backend} answers diverged before timing")
            race(
                backend,
                lambda a, b: engine.answer_batch(query_ids, a, b).answers,
                single, query_ids, windows[lane::races], metrics,
            )

    with ShardedEngine(mod, 4, backend="process", max_workers=2) as engine:
        started = time.perf_counter()
        engine.warm_up()
        metrics["process_warm_up_ms"] = (time.perf_counter() - started) * 1e3
        first = engine.answer_batch(query_ids, lo, hi)
        if first.answers != expected or first.worker_rebuilds:
            raise AssertionError("process answers diverged (or warm_up left work)")
        race(
            "process_w2",
            lambda a, b: engine.answer_batch(query_ids, a, b).answers,
            single, query_ids, windows[races - 1::races], metrics,
        )
        rebuilds = engine.registry.histogram("repro_sharded_worker_rebuild_seconds")
        cold_count, cold_sum = rebuilds.count, rebuilds.sum
        victim = mod.get(query_ids[0])
        mod.replace_trajectory(
            UncertainTrajectory(
                victim.object_id,
                [TrajectorySample(s.x, s.y + 0.25, s.t) for s in victim.samples],
                victim.radius,
                victim.pdf,
            )
        )
        after = engine.answer_batch(query_ids, lo, hi)
        if after.answers != single_answers(single, query_ids, lo, hi):
            raise AssertionError("process answers diverged after a store revision")
        metrics["process_worker_rebuilds_per_revision"] = float(after.worker_rebuilds)
        metrics["process_worker_rebuild_ms"] = (
            (rebuilds.sum - cold_sum) / max(rebuilds.count - cold_count, 1) * 1e3
        )
        print(
            f"  process: warm_up {metrics['process_warm_up_ms']:.0f} ms; one revision"
            f" -> {after.worker_rebuilds} worker rebuild(s) of"
            f" {metrics['process_worker_rebuild_ms']:.1f} ms each"
        )
    return config, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced fleet (4 districts, 24 windows, serial + process) for smoke tests",
    )
    parser.add_argument(
        "--json", type=str, default=None,
        help=f"write the record to this JSON file (e.g. {default_output_path(BENCH_NAME)})",
    )
    args = parser.parse_args()

    print("batch splitting vs the bare single engine")
    print("(sharded_fleet metro workload; answers verified equal)")
    config, metrics = run_bench(quick=args.quick)
    if args.json:
        write_record(args.json, BENCH_NAME, config, metrics)
        print(f"  wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
