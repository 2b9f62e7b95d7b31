"""Benchmark: columnar bulk kernels vs the reference filtering/box/band paths.

Measures the production bulk kernels against the :mod:`repro.reference`
implementations they replaced, per database size:

* ``corridor`` — :func:`repro.engine.filtering.corridor_probe_bulk` over a
  query batch vs the per-query
  :func:`repro.reference.corridor.conservative_corridor_radius` loop (fresh
  ``TrajectoryArrays``, i.e. the pre-columnar filtering path every engine
  construction used to pay, including its per-sample extraction).  Both
  sides are the median of ``REPEATS`` calls, and
  ``corridor_bulk_per_calibration`` divides the bulk one by the median of a
  fixed calibration kernel timed between them: the gated ratio does not
  move with the speed of the box, as an absolute time does;
* ``filter`` — the store's batch filter,
  ``mod.candidates_within_corridor``, over the same batch in an 8-minute
  window: one scan of the segment box table for all of it.  It is checked
  equal to the per-query ``filter_candidates`` lists, then gated as
  ``filter_batch_per_calibration``, so a return to one probe per query
  fails;
* ``pack`` — a cold ``ColumnarStore(mod).pack()``: the store adopts every
  trajectory's columns and concatenates them.  Gated as
  ``pack_per_calibration``, the median of ``REPEATS`` cold packs over the
  calibration kernel;
* ``index`` — ``mod.build_index("rtree")``, the path production runs: packed
  columns → :func:`repro.trajectories.columnar.segment_boxes_bulk` arrays →
  :class:`repro.index.table.SegmentBoxTable`, with no entry objects in
  between.  It has no slower twin left to race, so it is gated as
  ``index_build_per_calibration``; the table's live rows are first checked
  against the per-trajectory :func:`repro.reference.boxes.segment_boxes`
  loop;
* ``band`` — :func:`repro.core.pruning.band_intervals_batch` (rows from the
  packed piece columns, most of them decided by closed-form bounds) vs
  :func:`repro.reference.band.band_intervals_batch` (the per-candidate row
  loop that samples every row) over a prepared context's candidates, on two
  inputs: the random-waypoint store (``band_*``) and the streaming fleet's
  trailing window, where every candidate is piecewise
  (``band_piecewise_*``).  Both are checked to put no candidate on the
  scalar row builder, so neither gate can time ``_band_rows`` against itself;
* ``lower_envelope`` —
  :func:`repro.geometry.envelope.divide_conquer.lower_envelope` (the kinetic
  front at one level) vs the plain ``LE_Alg`` recursion it reproduces
  (:func:`repro.reference.envelope.le_alg`), over the candidates one
  corridor probe leaves;
* ``klevel`` — :func:`repro.geometry.envelope.klevel.k_level_envelopes`
  (the same front at three levels) vs the plain
  :func:`repro.reference.envelope.exclusion_cascade`.  The input is checked
  to be served without a dirty slab, so the gate can never time a cascade
  against a cascade;
* ``slab`` — the level-1 dirty slab of the heaviest ``rank_sweep`` op
  (``veh-1912`` over ``[55.2, 67.2]`` on the N=2000 city fleet: 0.32 minutes
  of ~935 functions): the production
  :func:`repro.geometry.envelope.divide_conquer.le_alg` the front runs on
  it, which skips subtrees buried under their sibling's envelope, vs the
  plain recursion.  It records ``slab_speedup`` and ``slab_rows_share``, the
  share of the slab's rows the skip still built;
* ``context`` — a cold context as the engine builds it,
  ``QueryContext.from_mod`` over one corridor's candidates plus
  :func:`repro.engine.answers.answer_of`, vs the same context built from a
  list of ``DistanceFunction`` objects (``mod.distance_functions`` +
  ``QueryContext.build``).  It records ``context_objects_per_candidate``,
  the functions the pack made per candidate, which the gate pins at 0.5;
* ``batch`` — one ``QueryEngine.prepare_batch`` of six cold queries (one
  pass per stage for all six) vs six single ``prepare`` calls, answers
  taken from each, on the city fleet at the same size.  It records
  ``batch_prepare_speedup`` and is not gated.

Every comparison asserts result equality (bit-identical pieces and
intervals) before reporting, so a speedup can never come from a divergent
answer; in addition, one fleet is answered through the planner and a
``ShardedEngine`` batch before any timing starts, asserting answers
byte-identical to one computed in this process from the reference kernels.
Run with::

    PYTHONPATH=src python benchmarks/bench_columnar.py
    PYTHONPATH=src python benchmarks/bench_columnar.py --sizes 500 --queries 8

``--quick`` trims the query batch but keeps the N=2000 size: the
regression gate pins the corridor speedup at that size.
"""

from __future__ import annotations

import argparse
import statistics
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.core.pruning import (
    band_intervals,
    band_intervals_batch,
    band_report,
    band_tally,
)
from repro.core.queries import QueryContext
from repro.engine import QueryEngine
from repro.engine.answers import answer_of
from repro.engine.filtering import corridor_probe_bulk, filter_candidates
from repro.geometry.envelope.bulk import front_envelopes, front_report, front_tally
from repro.geometry.envelope.divide_conquer import le_alg, lower_envelope
from repro.geometry.envelope.klevel import k_level_envelopes
from repro.reference import band as reference
from repro.reference import envelope as plain
from repro.reference.boxes import segment_boxes
from repro.reference.corridor import TrajectoryArrays, conservative_corridor_radius
from repro.trajectories.columnar import ColumnarStore
from repro.trajectories.difference import difference_distance_functions
from repro.trajectories.mod import MovingObjectsDatabase
from repro.workloads.random_waypoint import RandomWaypointConfig, generate_trajectories
from repro.workloads.scenarios import multi_query_fleet, streaming_fleet

from common import default_output_path, write_record

BENCH_NAME = "columnar"

#: Calls timed per gated measurement; the median is reported.
REPEATS = 7

_CALIBRATION_VECTOR = np.arange(100_000, dtype=float)


def calibration_kernel() -> None:
    """A fixed ~2 ms of interpreter and NumPy work, the mix the program runs
    (the recipe of ``benchmarks/e2e/run.py``'s kernel, which it quotes its
    times against)."""
    total = 0
    for i in range(30_000):
        total += i * i % 7
    np.sqrt(_CALIBRATION_VECTOR * _CALIBRATION_VECTOR + 1.0).sum()


def _timed(function, *args, **kwargs) -> float:
    started = time.perf_counter()
    function(*args, **kwargs)
    return time.perf_counter() - started


def _per_calibration(function, *args, **kwargs) -> Tuple[float, float]:
    """``(seconds, ratio)``: the median of ``REPEATS`` calls, and that median
    over the median of the calibration kernels timed between them.  Each
    call sits between two kernels, so a box slower for the whole run slows
    both sides of the ratio."""
    times, calibration = [], []
    for _ in range(REPEATS):
        calibration.append(_timed(calibration_kernel))
        times.append(_timed(function, *args, **kwargs))
    calibration.append(_timed(calibration_kernel))
    seconds = statistics.median(times)
    return seconds, seconds / statistics.median(calibration)


def build_mod(num_objects: int, seed: int = 7) -> MovingObjectsDatabase:
    config = RandomWaypointConfig(num_objects=num_objects, seed=seed)
    return MovingObjectsDatabase(generate_trajectories(config))


def bench_corridor(
    mod: MovingObjectsDatabase, num_queries: int
) -> Dict[str, float]:
    lo, hi = mod.common_time_span()
    stride = max(1, len(mod) // num_queries)
    query_ids = mod.object_ids[::stride][:num_queries]
    widths = [mod.default_band_width(query_id) for query_id in query_ids]

    def scalar_radii():
        arrays = TrajectoryArrays()
        return np.array([
            conservative_corridor_radius(mod, query_id, lo, hi, width, arrays)
            for query_id, width in zip(query_ids, widths)
        ])

    bulk = corridor_probe_bulk(mod, query_ids, lo, hi, widths)
    if not np.array_equal(scalar_radii(), bulk):
        raise AssertionError("corridor bulk kernel diverged from the scalar path")
    scalar_seconds = statistics.median(_timed(scalar_radii) for _ in range(REPEATS))
    bulk_seconds, bulk_ratio = _per_calibration(
        corridor_probe_bulk, mod, query_ids, lo, hi, widths
    )
    numbers = {
        "corridor_scalar_ms": scalar_seconds * 1000.0,
        "corridor_bulk_ms": bulk_seconds * 1000.0,
        "corridor_bulk_per_calibration": bulk_ratio,
        "corridor_speedup": scalar_seconds / bulk_seconds,
    }
    numbers.update(bench_filter(mod, query_ids, widths))
    return numbers


def bench_filter(mod, query_ids, widths, lo=20.0, hi=28.0) -> Dict[str, float]:
    """The batch filter over the corridor batch in an 8-minute window (the
    served windows' width), equal to its per-query lists."""
    index = mod.index()
    radii = corridor_probe_bulk(mod, query_ids, lo, hi, widths).tolist()
    batch = mod.candidates_within_corridor(query_ids, radii, lo, hi, index)
    singles = [
        filter_candidates(mod, index, query_id, lo, hi, width, corridor=radius)[0]
        for query_id, width, radius in zip(query_ids, widths, radii)
    ]
    if batch != singles:
        raise AssertionError("the batch filter diverged from its one-member calls")
    seconds, ratio = _per_calibration(
        mod.candidates_within_corridor, query_ids, radii, lo, hi, index
    )
    return {
        "filter_batch_ms": seconds * 1000.0,
        "filter_batch_per_calibration": ratio,
        "filter_candidates_mean": float(np.mean([len(ids) for ids in batch])),
    }


def bench_pack(mod: MovingObjectsDatabase) -> Dict[str, float]:
    seconds, ratio = _per_calibration(lambda: ColumnarStore(mod).pack())
    return {"pack_ms": seconds * 1000.0, "pack_per_calibration": ratio}


def bench_index_build(mod: MovingObjectsDatabase) -> Dict[str, float]:
    table = mod.build_index("rtree")
    x_min, y_min, x_max, y_max = mod.columnar().pack().spatial_bounds()
    max_extent = max(x_max - x_min, y_max - y_min) / 32.0 or None  # "auto"
    scalar = sorted(
        (str(e.object_id), e.box.x_min, e.box.y_min, e.box.t_min,
         e.box.x_max, e.box.y_max, e.box.t_max)
        for trajectory in mod
        for e in segment_boxes(trajectory, max_extent=max_extent)
    )
    live = table.boxes()
    rows = sorted(zip(
        [str(live.ids[slot]) for slot in live.owner_slots.tolist()],
        *(column.tolist() for column in (
            live.x_min, live.y_min, live.t_min, live.x_max, live.y_max, live.t_max
        )),
    ))
    if rows != scalar:
        raise AssertionError("the box table's live rows diverged from the scalar loop")
    seconds, ratio = _per_calibration(mod.build_index, "rtree")
    return {
        "index_build_ms": seconds * 1000.0,
        "index_build_per_calibration": ratio,
        "index_entries": float(len(table)),
    }


def _best_of_three(build, *args) -> float:
    """The best of three timings: with gates at zero tolerance, one
    scheduler hiccup must not decide a race of a few milliseconds."""
    seconds = []
    for _ in range(3):
        started = time.perf_counter()
        build(*args)
        seconds.append(time.perf_counter() - started)
    return min(seconds)


def _race_band(context, lo: float, hi: float, prefix: str) -> Dict[str, float]:
    """The columnar band pass against the row loop on one context's candidates."""
    functions = list(context.functions.values())
    args = (functions, context.envelope, context.band_width, lo, hi)
    scalar = reference.band_intervals_batch(*args)
    before = band_tally()
    batched = band_intervals_batch(*args)
    if scalar != batched:
        raise AssertionError("batched band kernel diverged from the reference")
    if band_report(before)["scalar"]:
        # A candidate went to ``_band_rows``: the race would be, in part,
        # the row loop against itself.
        raise AssertionError(f"the {prefix} gate's input needed the scalar row builder")
    single = band_intervals(functions[0], *args[1:])
    if single != scalar[0]:
        raise AssertionError("single-candidate call diverged from the batch row")
    scalar_seconds = _best_of_three(reference.band_intervals_batch, *args)
    batch_seconds = _best_of_three(band_intervals_batch, *args)
    return {
        f"{prefix}_scalar_ms": scalar_seconds * 1000.0,
        f"{prefix}_batch_ms": batch_seconds * 1000.0,
        f"{prefix}_speedup": scalar_seconds / batch_seconds,
        f"{prefix}_candidates": float(len(functions)),
    }


def bench_band(mod: MovingObjectsDatabase) -> Dict[str, float]:
    """Two inputs: the random-waypoint store's full window (mostly
    single-curve candidates) and, at the same fleet size, the streaming
    fleet's trailing window, where every candidate is piecewise."""
    lo, hi = mod.common_time_span()
    context = QueryEngine(mod).prepare(mod.object_ids[0], lo, hi).context
    numbers = _race_band(context, lo, hi, "band")
    scenario = streaming_fleet(num_vehicles=len(mod), num_queries=1, num_batches=1)
    _, horizon = scenario.mod.common_time_span()
    context = (
        QueryEngine(scenario.mod)
        .prepare(scenario.query_ids[0], horizon - 5.0, horizon)
        .context
    )
    if not all(
        function.breakpoints(horizon - 5.0, horizon)
        for function in context.functions.values()
    ):
        raise AssertionError("the streaming fleet's candidates are not all piecewise")
    numbers.update(_race_band(context, horizon - 5.0, horizon, "band_piecewise"))
    return numbers


def _identical_pieces(left, right) -> bool:
    return [(p.object_id, p.t_start, p.t_end) for p in left.pieces] == [
        (p.object_id, p.t_start, p.t_end) for p in right.pieces
    ]


def _identical_levels(vectorized, scalar) -> bool:
    return len(vectorized) == len(scalar) and all(
        _identical_pieces(left, right)
        for left, right in zip(vectorized.levels, scalar.levels)
    )


def bench_lower_envelope(mod: MovingObjectsDatabase) -> Dict[str, float]:
    lo, hi = mod.common_time_span()
    query_id = mod.object_ids[0]
    # The candidates one corridor probe leaves: what every cold prepare
    # hands the envelope builder.
    functions = list(QueryEngine(mod).prepare(query_id, lo, hi).context.functions.values())
    if not _identical_pieces(lower_envelope(functions, lo, hi), plain.le_alg(functions, lo, hi)):
        raise AssertionError("kinetic front diverged from the scalar LE_Alg")

    scalar_seconds = _best_of_three(plain.le_alg, functions, lo, hi)
    vector_seconds = _best_of_three(lower_envelope, functions, lo, hi)
    return {
        "lower_envelope_scalar_ms": scalar_seconds * 1000.0,
        "lower_envelope_vector_ms": vector_seconds * 1000.0,
        "lower_envelope_speedup": scalar_seconds / vector_seconds,
        "lower_envelope_functions": float(len(functions)),
    }


def bench_klevel(mod: MovingObjectsDatabase, max_levels: int = 3) -> Dict[str, float]:
    lo, hi = mod.common_time_span()
    query_id = mod.object_ids[0]
    context = QueryEngine(mod).prepare(query_id, lo, hi).context
    # The engine computes level envelopes over the band-pruned survivors
    # (QueryContext.level_envelopes), so the k-level kernel is timed on the
    # same input a rank query would hand it.
    functions = context.survivors() or list(context.functions.values())

    started = time.perf_counter()
    scalar = plain.exclusion_cascade(functions, lo, hi, max_levels=max_levels)
    scalar_seconds = time.perf_counter() - started

    before = front_tally()
    started = time.perf_counter()
    vectorized = k_level_envelopes(functions, lo, hi, max_levels=max_levels)
    vector_seconds = time.perf_counter() - started

    if not _identical_levels(vectorized, scalar):
        raise AssertionError("kinetic front diverged from the scalar cascade")
    if front_report(before)["dirty_slabs"]:
        # A slab (or the whole window) went to the cascade: the race would
        # be, in part, the cascade against itself.
        raise AssertionError("the k-level gate's input needed a scalar slab")
    return {
        "klevel_scalar_ms": scalar_seconds * 1000.0,
        "klevel_vector_ms": vector_seconds * 1000.0,
        "klevel_speedup": scalar_seconds / vector_seconds,
        "klevel_functions": float(len(functions)),
    }


def bench_slab(num_vehicles: int) -> Dict[str, float]:
    """The heaviest ``rank_sweep`` op's level-1 dirty slab, the skip vs the
    plain recursion; equality asserted before timing."""
    mod, _ = multi_query_fleet(num_vehicles=num_vehicles, num_queries=6, seed=29)
    lo, hi = 55.2, 67.2
    pack = QueryEngine(mod).prepare("veh-1912", lo, hi).context.pack
    slabs: List[Tuple[float, float]] = []
    before = front_tally()
    front_envelopes(pack, lo, hi, 1, lambda s, e: slabs.append((s, e)) or [le_alg(pack, s, e)])
    rows_share = front_report(before)["slab_rows_share"]
    start, end = max(slabs, key=lambda slab: slab[1] - slab[0])
    functions = pack.functions
    if not _identical_pieces(le_alg(pack, start, end), plain.le_alg(functions, start, end)):
        raise AssertionError("LE_Alg's subtree skip diverged from the plain recursion")
    plain_seconds = _best_of_three(plain.le_alg, functions, start, end)
    skip_seconds = _best_of_three(le_alg, pack, start, end)
    return {
        "slab_plain_ms": plain_seconds * 1000.0,
        "slab_skip_ms": skip_seconds * 1000.0,
        "slab_speedup": plain_seconds / skip_seconds,
        "slab_functions": float(len(pack)),
        "slab_minutes": end - start,
        "slab_rows_share": rows_share,
    }


def bench_context(mod: MovingObjectsDatabase) -> Dict[str, float]:
    lo, hi = mod.common_time_span()
    query_id = mod.object_ids[0]
    engine = QueryEngine(mod)
    candidates = engine.candidate_ids(query_id, lo, hi)
    width = mod.default_band_width(query_id)

    def packed():
        context = QueryContext.from_mod(mod, query_id, lo, hi, width, candidates)
        return context, answer_of(context, "sometime")

    def objects():
        functions = mod.distance_functions(query_id, lo, hi, candidates)
        context = QueryContext.build(functions, query_id, lo, hi, width)
        return context, answer_of(context, "sometime")

    (context, answer), (eager, expected) = packed(), objects()
    if answer != expected or not _identical_pieces(context.envelope, eager.envelope):
        raise AssertionError("the context over the pack diverged from the object path")
    objects_per_candidate = context.pack.materialized / len(context.pack)
    object_seconds = _best_of_three(objects)
    pack_seconds = _best_of_three(packed)
    return {
        "context_objects_ms": object_seconds * 1000.0,
        "context_pack_ms": pack_seconds * 1000.0,
        "context_speedup": object_seconds / pack_seconds,
        "context_objects_per_candidate": objects_per_candidate,
        "context_candidates": float(len(context.pack)),
    }


def bench_batch(num_vehicles: int, batch: int = 6) -> Dict[str, float]:
    """One staged ``prepare_batch`` of six cold queries against six single
    prepares, on the city fleet at the same size; answers taken from each."""
    mod, query_ids = multi_query_fleet(num_vehicles=num_vehicles, num_queries=batch, seed=29)
    lo, hi = 20.0, 28.0

    def batched():
        prepared = QueryEngine(mod).prepare_batch(query_ids, lo, hi)
        return [(item.context, answer_of(item.context, "sometime")) for item in prepared]

    def singles():
        engine = QueryEngine(mod)
        contexts = [engine.prepare(query_id, lo, hi).context for query_id in query_ids]
        return [(context, answer_of(context, "sometime")) for context in contexts]

    for (mine, answer), (theirs, expected) in zip(batched(), singles()):
        if (
            answer != expected
            or not _identical_pieces(mine.envelope, theirs.envelope)
            or mine.survivor_intervals() != theirs.survivor_intervals()
        ):
            raise AssertionError("the staged batch diverged from single prepares")
    single_seconds = _best_of_three(singles)
    batch_seconds = _best_of_three(batched)
    return {
        "batch_singles_ms": single_seconds * 1000.0,
        "batch_prepare_ms": batch_seconds * 1000.0,
        "batch_prepare_speedup": single_seconds / batch_seconds,
    }


def reference_answers(
    mod: MovingObjectsDatabase, query_id: object, lo: float, hi: float, rank: int
) -> List[List[object]]:
    """UQ31 and UQ41(``rank``) ids computed from the reference kernels alone."""
    functions = difference_distance_functions(list(mod), mod.get(query_id), lo, hi)
    intervals = reference.band_intervals_batch(
        functions,
        plain.le_alg(functions, lo, hi),
        mod.default_band_width(query_id),
        lo,
        hi,
    )
    survivors = [
        function for function, inside in zip(functions, intervals) if inside
    ]
    levels = plain.exclusion_cascade(survivors, lo, hi, max_levels=rank)
    ranked = {
        object_id for level in levels.levels for object_id in level.distinct_owner_ids
    }
    return [
        sorted((function.object_id for function in survivors), key=str),
        sorted(ranked, key=str),
    ]


def assert_backend_identity(num_objects: int = 96, seed: int = 23) -> None:
    """Byte-identity of planned and sharded answers to the reference.

    Runs one UQ3x and one UQ4x statement over a small fleet through the
    planner, and the UQ3x query through one :class:`ShardedEngine` pass,
    and asserts each returns exactly the ids :func:`reference_answers`
    computes in this process.  Raises before any timing happens, so a
    reported speedup can never ride on a path-dependent answer.
    """
    from repro.parallel import ShardedEngine
    from repro.query_language import QueryExecutor

    mod = build_mod(num_objects, seed=seed)
    lo, hi = mod.common_time_span()
    query_id = mod.object_ids[0]
    window = f"TIME IN [{lo}, {hi}]"
    texts = [
        f"SELECT T FROM MOD WHERE EXISTS {window} "
        f"AND PROBABILITY_NN(T, '{query_id}', TIME) > 0",
        f"SELECT T FROM MOD WHERE EXISTS {window} "
        f"AND RANK_NN(T, '{query_id}', TIME) <= 3",
    ]
    expected = reference_answers(mod, query_id, lo, hi, rank=3)
    planned = [result.object_ids for result in QueryExecutor(mod).execute_many(texts)]
    if planned != expected:
        raise AssertionError(
            f"planned answers diverged from the reference: {planned} != {expected}"
        )
    with ShardedEngine(mod, num_shards=2) as sharded:
        batch = sharded.answer_batch([query_id], lo, hi)
        answer = sorted(batch.answers[query_id], key=str)
    if answer != expected[0]:
        raise AssertionError(
            f"sharded answers diverged from the reference: {answer} != {expected[0]}"
        )


def run_bench(
    quick: bool = False,
    sizes: List[int] | None = None,
    queries: int | None = None,
) -> Tuple[Dict, Dict[str, float]]:
    """Run the kernel sweep; returns ``(config, metrics)`` for the record schema.

    Metric keys are flattened per size: ``n<size>_<metric>``.  N=2000 stays
    in the quick grid because the regression gate pins the corridor-kernel
    speedup there.
    """
    sizes = sizes or ([2000] if quick else [500, 2000])
    queries = queries or (8 if quick else 16)
    config = {"sizes": sizes, "queries": queries, "quick": quick}
    metrics: Dict[str, float] = {}
    print("  byte-identity check (planner and sharded batch vs reference) ...")
    assert_backend_identity()
    for num_objects in sizes:
        mod = build_mod(num_objects)
        numbers = bench_pack(mod)
        numbers.update(bench_corridor(mod, queries))
        numbers.update(bench_index_build(mod))
        numbers.update(bench_band(mod))
        numbers.update(bench_lower_envelope(mod))
        numbers.update(bench_klevel(mod))
        numbers.update(bench_context(mod))
        numbers.update(bench_batch(num_objects))
        if num_objects == 2000:
            # The slab belongs to the benchmark's N=2000 world.
            numbers.update(bench_slab(num_objects))
        print(
            f"N={num_objects}: pack {numbers['pack_ms']:6.1f} ms | "
            f"corridor {numbers['corridor_scalar_ms']:7.1f} -> "
            f"{numbers['corridor_bulk_ms']:6.1f} ms "
            f"({numbers['corridor_speedup']:4.2f}x) | "
            f"filter {numbers['filter_batch_ms']:6.2f} ms "
            f"({numbers['filter_candidates_mean']:.0f} candidates/query) | "
            f"index build {numbers['index_build_ms']:6.1f} ms "
            f"({numbers['index_entries']:.0f} entries) | "
            f"band {numbers['band_scalar_ms']:7.1f} -> "
            f"{numbers['band_batch_ms']:6.1f} ms "
            f"({numbers['band_speedup']:4.2f}x) | "
            f"band (piecewise) {numbers['band_piecewise_scalar_ms']:7.1f} -> "
            f"{numbers['band_piecewise_batch_ms']:6.1f} ms "
            f"({numbers['band_piecewise_speedup']:4.2f}x) | "
            f"envelope {numbers['lower_envelope_scalar_ms']:7.1f} -> "
            f"{numbers['lower_envelope_vector_ms']:6.1f} ms "
            f"({numbers['lower_envelope_speedup']:4.2f}x) | "
            f"klevel {numbers['klevel_scalar_ms']:7.1f} -> "
            f"{numbers['klevel_vector_ms']:6.1f} ms "
            f"({numbers['klevel_speedup']:4.2f}x) | "
            f"context {numbers['context_objects_ms']:6.1f} -> "
            f"{numbers['context_pack_ms']:6.1f} ms "
            f"({numbers['context_objects_per_candidate']:.3f} objects/candidate) | "
            f"batch of 6 {numbers['batch_singles_ms']:6.1f} -> "
            f"{numbers['batch_prepare_ms']:6.1f} ms "
            f"({numbers['batch_prepare_speedup']:4.2f}x)"
        )
        if "slab_speedup" in numbers:
            print(
                f"  slab of {numbers['slab_functions']:.0f} functions: "
                f"plain {numbers['slab_plain_ms']:6.2f} -> skip "
                f"{numbers['slab_skip_ms']:6.2f} ms ({numbers['slab_speedup']:4.2f}x, "
                f"{numbers['slab_rows_share']:.3f} of the rows built)"
            )
        for key, value in numbers.items():
            metrics[f"n{num_objects}_{key}"] = value
    return config, metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help="database sizes to sweep (default 500 2000)",
    )
    parser.add_argument(
        "--queries", type=int, default=None,
        help="corridor query batch size (default 16, quick 8)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced grid (N=2000 only, 8 queries) for smoke tests",
    )
    parser.add_argument(
        "--json", type=str, default=None,
        help=f"write the record to this JSON file (e.g. {default_output_path(BENCH_NAME)})",
    )
    args = parser.parse_args()

    print("columnar bulk kernels vs scalar paths (equality asserted per comparison)")
    config, metrics = run_bench(
        quick=args.quick, sizes=args.sizes, queries=args.queries
    )
    if args.json:
        write_record(args.json, BENCH_NAME, config, metrics)
        print(f"  wrote {args.json}")


if __name__ == "__main__":
    main()
