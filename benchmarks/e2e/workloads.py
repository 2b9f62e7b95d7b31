"""The four workloads of the end-to-end benchmark.

Every workload is a closed loop: the generator awaits each reply before it
sends more, as the system's callers do.  Inputs are a pure function of
``(seed, op index)``, so one seed replays the same ops however long the
run lasts.  The program only ever sees the generated inputs.

Why these four (the README has the long form):

* ``dash_refresh`` - repeated fingerprints with a trickle of writes: the
  caches, admission, coalescing and invalidation do the work.
* ``adhoc_cold``   - windows that never repeat: the corridor filter,
  difference functions, envelope and band do the work; caches cannot help.
* ``rank_sweep``   - rank statements through the query language: the
  planner and the k-level sweep do the work; the service is bypassed.
* ``stream_mixed`` - full-fleet update batches beside reads on a durable
  service: ingest, incremental refresh, WAL and checkpoints do the work.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import QueryEngine, answer_of
from repro.query_language import QueryExecutor, execute_query_naive
from repro.service import QueryRequest, QueryService, ResultCache
from repro.streaming import ContinuousMonitor, answers_equal, reference_answer
from repro.trajectories.mod import MovingObjectsDatabase
from repro.workloads.scenarios import multi_query_fleet, streaming_fleet

from layers import ReplayCounts, perturbed, replay_context, shard_safety_check
from spans import Tracer

#: Everything the benchmark writes lands under this directory of the
#: checkout it runs in.
WORK_DIR = ".e2e_work"

VARIANTS = (("sometime", 0.0), ("always", 0.0), ("fraction", 0.5))

#: The world is part of the benchmark, not of the run: every seed queries
#: the same fleet, so two runs differ by what they ask, not by where the
#: depots happened to land.
SCENARIO_SEED = 29

#: Each base op owns a slot of the shift; the run's seed places the window
#: inside the slot, within this many minutes.
SLOT_JITTER = 0.05

_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class Sizes:
    """Op counts and store sizes of one run.

    Shrink a run by its op counts (``seconds``, ``setup_repeats``, the
    checkpoint cadence, the WAL tail), never by ``fleet``/``stream_fleet``
    or by dropping a workload: the numbers stop being comparable.
    """

    fleet: int = 2000
    stream_fleet: int = 500
    monitored: int = 32
    hot_fingerprints: int = 32
    standing: int = 6
    seconds: float = 25.0
    rounds: int = 5
    setup_repeats: int = 3
    write_every: int = 10
    checkpoint_every: int = 2
    wal_tail_batches: int = 3
    restarts: int = 3
    stream_batches: int = 64
    oracle_samples: int = 12
    oracle_revisions: int = 3
    trace_ops: int = 12
    probe_queries: int = 8
    scale_sweep: Tuple[int, int, int] = (500, 2000, 10000)


SMOKE = Sizes(
    fleet=80,
    stream_fleet=40,
    monitored=8,
    hot_fingerprints=8,
    standing=3,
    seconds=0.5,
    rounds=2,
    setup_repeats=1,
    write_every=3,
    checkpoint_every=2,
    wal_tail_batches=1,
    restarts=1,
    stream_batches=24,
    oracle_samples=4,
    oracle_revisions=2,
    trace_ops=4,
    probe_queries=4,
    scale_sweep=(40, 80, 160),
)


@dataclass
class OpResult:
    """What one closed-loop op did, as the generator saw it."""

    latencies_ms: List[float] = field(default_factory=list)
    ok: int = 0
    failed: int = 0
    update_ms: List[float] = field(default_factory=list)


class Exhausted(Exception):
    """The workload ran out of scripted input before the run was over."""


def _report_failure(where: str) -> None:
    print(f"[e2e] op failed in {where}:\n{traceback.format_exc()}", file=sys.stderr)


async def _timed_submit(service: QueryService, request: QueryRequest):
    """``(latency_ms, response)`` of one request, or ``None`` when it failed."""
    started = time.perf_counter()
    try:
        response = await service.submit(request)
    except Exception:  # noqa: BLE001 - a failed request is a counted outcome
        _report_failure("service.submit")
        return None
    return (time.perf_counter() - started) * 1e3, response


async def _burst(workload: "Workload", requests: Sequence[QueryRequest], result: OpResult):
    """Submit concurrently, wait for all; returns the responses that came back."""
    outcomes = await asyncio.gather(
        *(_timed_submit(workload.service, request) for request in requests)
    )
    responses = []
    for outcome in outcomes:
        if outcome is None:
            result.failed += 1
            continue
        latency_ms, response = outcome
        result.latencies_ms.append(latency_ms)
        result.ok += 1
        responses.append(response)
        if not response.from_cache:
            workload.queue_waits_ms.append(response.queue_seconds * 1e3)
    return responses


class Workload:
    """Shared shape: set up, run ops, verify outside the timed phase."""

    name = ""
    #: The traced pass replays the reference phase's own op indexes (true
    #: where ops are cold and leave no state behind), or carries on after
    #: them (where an op changes what the next one sees).
    replays_reference_ops = False
    #: Ops per second on the reference box at full size; turns a run length
    #: into an op count.
    nominal_ops_per_second = 1.0
    #: A cap on ``Sizes.setup_repeats`` for a workload whose set-up is dear.
    max_setups = 3
    #: Scales ``Sizes.trace_ops``: more where ops are cheap and it takes many
    #: to reach the steady mix, fewer where one op takes seconds.
    trace_ops_factor = 1.0
    #: True where every round costs more than the one before it.  The median
    #: of such rounds is the middle round alone; the run reports their mean,
    #: which uses all of them and means the same from run to run because
    #: every run makes the same rounds.
    rounds_grow = False

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.checked = 0
        self.mismatches = 0
        self.mod: MovingObjectsDatabase
        self.service: Optional[QueryService] = None
        self.counts = ReplayCounts()
        self.queue_waits_ms: List[float] = []
        #: Ops in one round; the runner sets it before the first op.
        self.round_ops = 1

    def rng(self, stream: int, index: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream, index])

    def expect(self, condition: bool, what: str) -> None:
        """One oracle comparison; a mismatch is a failed op."""
        self.checked += 1
        if not condition:
            self.mismatches += 1
            print(f"[e2e] {self.name}: oracle mismatch: {what}", file=sys.stderr)

    async def set_up(self) -> None:
        raise NotImplementedError

    async def start_service(self, **options) -> None:
        """Start ``self.service`` over ``self.mod``, timing the start."""
        self.service = QueryService(self.mod, **options)
        started = time.perf_counter()
        await self.service.start()
        self.service_start_ms = (time.perf_counter() - started) * 1e3

    async def tear_down(self) -> None:
        if self.service is not None:
            await self.service.stop()

    async def op(self, index: int) -> OpResult:
        raise NotImplementedError

    def prepare_tracing(self) -> None:
        """Build what only the traced ops need (the bench's own index, cache...)."""

    async def traced_op(self, index: int, tracer: Tracer) -> None:
        raise NotImplementedError

    def ops_per_round(self, round_seconds: float) -> int:
        """How many ops make one round of ``round_seconds`` at full size.

        A count fixed by the run length, not by the clock: every run of one
        length does the same work, so a faster program is compared on the
        ops a slower one ran, not on whichever ones it reached.
        """
        return max(1, round(round_seconds * self.nominal_ops_per_second))

    async def finish(self) -> Dict[str, float]:
        """After the measured phase: metrics only this workload has."""
        return {}

    async def verify(self) -> None:
        raise NotImplementedError

    def vacuity(self) -> List[str]:
        """Reasons this run measured nothing, if any."""
        raise NotImplementedError

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer counts the real path exposes (traced pass only)."""
        return {}

    def service_layer_metrics(self) -> Dict[str, float]:
        """Counts the service's own registry took over the ops so far."""
        stats = self.service.stats()
        registry = self.service.registry
        hits = registry.counter("repro_engine_cache_hits_total").value
        misses = registry.counter("repro_engine_cache_misses_total").value
        return {
            "service.start_ms": self.service_start_ms,
            "service.cache_hit_ratio": stats.cache_hits / max(stats.submitted, 1),
            "service.coalesce_width": stats.coalescing_factor,
            "service.queue_wait_ms": (
                statistics.median(self.queue_waits_ms) if self.queue_waits_ms else 0.0
            ),
            "engine.context_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        }


class _FleetWorkload(Workload):
    """The three workloads that share the N=2000 mixed city fleet."""

    shift_minutes = 90.0

    def build_fleet(self) -> None:
        self.mod, self.monitored = multi_query_fleet(
            num_vehicles=self.sizes.fleet,
            num_queries=self.sizes.monitored,
            shift_minutes=self.shift_minutes,
            seed=SCENARIO_SEED,
        )
        self.ids = self.mod.object_ids
        order = np.random.default_rng([SCENARIO_SEED, 5]).permutation(len(self.ids))
        self.base_ids = [self.ids[int(k)] for k in order]

    def base_op(self, index: int) -> Tuple[int, np.random.Generator]:
        """Which base op the run's ``index``-th op is, and its jitter stream.

        Every round runs the same ``round_ops`` base ops, in an order and
        with window jitter drawn from ``(seed, round)``.  Op costs here are
        heavy-tailed; rounds and seeds that drew their own ops would differ
        by the draw more than by anything the program does.
        """
        turn, position = divmod(index, self.round_ops)
        order = self.rng(6, turn).permutation(self.round_ops)
        base = int(order[position])
        return base, self.rng(2, turn * self.round_ops + base)

    def slot_window(
        self, base: int, rng: np.random.Generator, width: float
    ) -> Tuple[float, float]:
        """The base op's slot of the shift, the window jittered inside it."""
        span = self.shift_minutes - width - SLOT_JITTER
        start = ((base + 1) * _GOLDEN % 1.0) * span + rng.uniform(0.0, SLOT_JITTER)
        start = round(float(start), 9)
        return start, start + width


class DashRefresh(_FleetWorkload):
    name = "dash_refresh"
    nominal_ops_per_second = 42.0  # bursts
    max_setups = 2  # one set-up warms 128 cold contexts: ~6 s
    trace_ops_factor = 10.0
    burst = 16
    hot_share = 8  # of the 16: picks from the hot fingerprints

    async def set_up(self) -> None:
        self.build_fleet()
        self.initial = list(self.mod)
        self.base_revision = self.mod.revision
        self.writes: List = []
        self.sampled: List = []
        await self.start_service()
        windows = [(2.0 + 11.0 * k, 10.0 + 11.0 * k) for k in range(4)]
        self.requests = [
            QueryRequest(query_id, lo, hi, variant, fraction)
            for query_id in self.monitored
            for lo, hi in windows
            for variant, fraction in VARIANTS
        ]
        order = self.rng(1).permutation(len(self.requests))
        self.hot = order[: self.sizes.hot_fingerprints]
        self.cold = order[self.sizes.hot_fingerprints:]
        monitored = set(self.monitored)
        self.unmonitored = [oid for oid in self.ids if oid not in monitored]
        # Cache warm: every fingerprint once, so the contexts exist before
        # the first measured burst.
        for start in range(0, len(self.requests), self.burst):
            await self.service.submit_all(self.requests[start:start + self.burst])
        self.service.reset()

    def inputs(self, index: int) -> List[QueryRequest]:
        rng = self.rng(2, index)
        hot = rng.choice(self.hot, size=min(self.hot_share, len(self.hot)), replace=False)
        cold = rng.choice(self.cold, size=self.burst - len(hot), replace=False)
        return [self.requests[int(k)] for k in (*hot, *cold)]

    def write(self, index: int) -> None:
        """Replace one unmonitored vehicle; bumps ``mod.revision``."""
        rng = self.rng(3, index)
        victim = self.unmonitored[int(rng.integers(len(self.unmonitored)))]
        replacement = perturbed(self.mod.get(victim), rng)
        self.mod.replace_trajectory(replacement)
        self.writes.append(replacement)

    async def op(self, index: int) -> OpResult:
        if index and index % self.sizes.write_every == 0:
            self.write(index)
        result = OpResult()
        responses = await _burst(self, self.inputs(index), result)
        if responses:
            self.sampled.append(responses[index % len(responses)])
        return result

    def replica_burst(self, requests: Sequence[QueryRequest], tracer: Tracer) -> None:
        """The service's flow re-made from its parts: result cache, then pool.

        The cache is the bench's own; the pool is the service's, so the
        contexts behind it are as warm as they are for the real ops.
        """
        revision = self.mod.revision
        groups: Dict[tuple, List[QueryRequest]] = {}
        with tracer.span("service.cache"):
            for request in requests:
                if self.trace_cache.get(request.fingerprint, revision) is None:
                    groups.setdefault(request.group_key, []).append(request)
        for members in groups.values():
            head = members[0]
            with tracer.span("parallel.answer_group"):
                answers = self.service.pool.answer_group(
                    list(dict.fromkeys(r.query_id for r in members)),
                    head.t_start,
                    head.t_end,
                    variant=head.variant,
                    fraction=head.fraction,
                ).answers
            with tracer.span("service.cache"):
                for request in members:
                    self.trace_cache.put(
                        request.fingerprint, revision, answers[request.query_id]
                    )

    def prepare_tracing(self) -> None:
        self.trace_cache = ResultCache(capacity=4096)
        for start in range(0, len(self.requests), self.burst):
            self.replica_burst(self.requests[start:start + self.burst], Tracer())

    async def traced_op(self, index: int, tracer: Tracer) -> None:
        if index and index % self.sizes.write_every == 0:
            self.write(index)
        with tracer.op(index):
            self.replica_burst(self.inputs(index), tracer)

    def store_at(self, revision: int) -> MovingObjectsDatabase:
        """The store as it stood at ``revision``, rebuilt from the write log."""
        current = {trajectory.object_id: trajectory for trajectory in self.initial}
        for replacement in self.writes[: revision - self.base_revision]:
            current[replacement.object_id] = replacement
        return MovingObjectsDatabase(current.values())

    async def verify(self) -> None:
        by_revision: Dict[int, List] = {}
        for response in self.sampled:
            by_revision.setdefault(response.revision, []).append(response)
        revisions = sorted(by_revision)
        chosen = {revisions[-1]}
        extra = self.rng(4).permutation(len(revisions))
        for k in extra[: self.sizes.oracle_revisions - 1]:
            chosen.add(revisions[int(k)])
        per_revision = max(1, self.sizes.oracle_samples // len(chosen))
        for revision in sorted(chosen):
            engine = QueryEngine(self.store_at(revision))
            for response in by_revision[revision][:per_revision]:
                request = response.request
                expected = engine.answer(
                    request.query_id,
                    request.t_start,
                    request.t_end,
                    request.variant,
                    request.fraction,
                )
                self.expect(
                    response.answer == expected,
                    f"{request} at revision {revision} ({response.backend})",
                )

    def vacuity(self) -> List[str]:
        ratio = self.service_layer_metrics()["service.cache_hit_ratio"]
        if not 0.1 < ratio < 0.9:
            return [f"result-cache hit ratio {ratio:.3f} is outside (0.1, 0.9)"]
        return []


class AdhocCold(_FleetWorkload):
    name = "adhoc_cold"
    replays_reference_ops = True
    nominal_ops_per_second = 3.7  # bursts
    burst = 6
    width = 8.0

    async def set_up(self) -> None:
        self.build_fleet()
        self.sampled: List = []
        await self.start_service()
        self.service.reset()

    def inputs(self, index: int) -> Tuple[List[object], float, float]:
        base, rng = self.base_op(index)
        lo, hi = self.slot_window(base, rng, self.width)
        picks = range(base * self.burst, (base + 1) * self.burst)
        return [self.base_ids[k % len(self.base_ids)] for k in picks], lo, hi

    async def op(self, index: int) -> OpResult:
        query_ids, lo, hi = self.inputs(index)
        result = OpResult()
        responses = await _burst(
            self, [QueryRequest(q, lo, hi) for q in query_ids], result
        )
        if responses:
            self.sampled.append(responses[index % len(responses)])
        return result

    def prepare_tracing(self) -> None:
        self.trace_index = self.mod.build_index("rtree")

    async def traced_op(self, index: int, tracer: Tracer) -> None:
        """One cold burst, taken apart the way a shard runs it."""
        query_ids, lo, hi = self.inputs(index)
        with tracer.op(index):
            shard_safety_check(tracer, self.mod, query_ids, lo, hi)
            for query_id in query_ids:
                context = replay_context(
                    tracer, self.mod, self.trace_index, query_id, lo, hi, self.counts
                )
                with tracer.span("core.answer"):
                    answer_of(context, "sometime")

    async def verify(self) -> None:
        engine = QueryEngine(self.mod)
        picks = self.rng(4).permutation(len(self.sampled))[: self.sizes.oracle_samples]
        for k in picks:
            response = self.sampled[int(k)]
            request = response.request
            expected = engine.answer(request.query_id, request.t_start, request.t_end)
            self.expect(
                response.answer == expected and response.revision == self.mod.revision,
                f"{request} ({response.backend})",
            )

    def vacuity(self) -> List[str]:
        hits = self.service.stats().cache_hits
        return [f"{hits} result-cache hits on windows that never repeat"] if hits else []


class RankSweep(_FleetWorkload):
    name = "rank_sweep"
    replays_reference_ops = True
    nominal_ops_per_second = 7.5
    width = 12.0
    oracle_ops = 2  # reports checked against the naive interpreter: 8 statements

    async def set_up(self) -> None:
        self.build_fleet()
        self.executor = QueryExecutor(self.mod)
        self.sampled: List = []
        self.ops = 0
        self.empty_rank_answers = 0

    def inputs(self, index: int) -> List[str]:
        base, rng = self.base_op(index)
        query_id = self.base_ids[base % len(self.base_ids)]
        lo, hi = self.slot_window(base, rng, self.width)
        window = f"TIME IN [{lo:.9f}, {hi:.9f}]"
        rank = f"RANK_NN(T, '{query_id}', TIME)"
        return [
            f"SELECT T FROM MOD WHERE EXISTS {window} AND {rank} <= 3",
            f"SELECT T FROM MOD WHERE FORALL {window} AND {rank} <= 2",
            f"SELECT T FROM MOD WHERE FRACTION {window} >= 0.5 AND {rank} <= 3",
            f"SELECT T FROM MOD WHERE EXISTS {window} "
            f"AND PROBABILITY_NN(T, '{query_id}', TIME) > 0",
        ]

    async def op(self, index: int) -> OpResult:
        statements = self.inputs(index)
        started = time.perf_counter()
        try:
            results = self.executor.execute_many(statements)
        except Exception:  # noqa: BLE001 - a failed report is a counted outcome
            _report_failure("QueryExecutor.execute_many")
            return OpResult(failed=1)
        latency = (time.perf_counter() - started) * 1e3
        self.ops += 1
        if not results[0].object_ids:
            self.empty_rank_answers += 1
        if len(self.sampled) < self.oracle_ops:
            self.sampled.append((statements, [r.object_ids for r in results]))
        return OpResult(latencies_ms=[latency], ok=1)

    def prepare_tracing(self) -> None:
        # An engine only the traced ops use: its contexts are cold for them,
        # as the executor's own are for the ops themselves.
        self.trace_engine = QueryEngine(self.mod)
        self.plan_groups: List[float] = []
        self.execute_seconds: List[float] = []

    async def traced_op(self, index: int, tracer: Tracer) -> None:
        """One report, taken apart: compile, prepare, k-level, answers."""
        statements = self.inputs(index)
        with tracer.op(index):
            with tracer.span("query_language.compile"):
                plan = self.executor.compile(statements)
            for group in plan.groups:
                query_id = group.statements[0].query_object
                context = replay_context(
                    tracer, self.mod, self.trace_engine.index, query_id,
                    group.t_start, group.t_end, self.counts, levels=3,
                )
                with tracer.span("core.rank_answer"):
                    context.uq41_all_rank_sometime(3)
                    context.uq42_all_rank_always(2)
                    context.uq43_all_rank_at_least(3, 0.5)
                with tracer.span("core.answer"):
                    answer_of(context, "sometime")
        # Outside the op: the real plan execution of the same statements,
        # for query_language.execute_ms.
        started = time.perf_counter()
        plan.execute(self.trace_engine)
        self.execute_seconds.append(time.perf_counter() - started)
        self.plan_groups.append(len(plan.groups) / plan.statement_count)

    async def verify(self) -> None:
        for statements, answers in self.sampled:
            for statement, object_ids in zip(statements, answers):
                expected = execute_query_naive(statement, self.mod).object_ids
                self.expect(object_ids == expected, statement)

    def vacuity(self) -> List[str]:
        problems = []
        built = self.executor.cache_info().misses
        if built < self.ops:
            problems.append(f"{self.ops} ops built only {built} fresh contexts")
        if self.empty_rank_answers:
            problems.append(
                f"{self.empty_rank_answers} ops returned no rank-3 owner: "
                "no level envelopes were built"
            )
        return problems

    def layer_metrics(self) -> Dict[str, float]:
        return {
            "query_language.execute_ms": statistics.median(self.execute_seconds) * 1e3,
            "query_language.groups_per_statement": statistics.mean(self.plan_groups),
        }


class StreamMixed(Workload):
    name = "stream_mixed"
    sliding = 5.0
    #: Every tick lengthens every history and a tick's cost grows with
    #: them (the last round's reads take twice the first's), which is why
    #: rounds are op counts and not clock time.
    nominal_ops_per_second = 0.8  # ticks
    rounds_grow = True
    trace_ops_factor = 1 / 3

    async def set_up(self) -> None:
        sizes = self.sizes
        self.scenario = streaming_fleet(
            num_vehicles=sizes.stream_fleet,
            num_queries=sizes.standing,
            horizon_minutes=30.0,
            num_batches=sizes.stream_batches,
            batch_minutes=1.0,
            reports_per_batch=1,
            seed=SCENARIO_SEED,
        )
        self.mod = self.scenario.mod
        self.query_ids = self.scenario.query_ids
        os.makedirs(WORK_DIR, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="stream-", dir=WORK_DIR)
        self.data_dir = os.path.join(self.dir, "data")
        await self.start_service(data_dir=self.data_dir, persistence_fsync="batch")
        self.monitor = ContinuousMonitor(self.mod)
        for query_id in self.query_ids:
            self.monitor.register(query_id, sliding=self.sliding)
        for object_id in self.mod.object_ids:
            self.monitor.track(
                object_id,
                max_speed=self.scenario.max_speed,
                minimum_radius=self.scenario.uncertainty_radius,
            )
        self.service.attach_monitor(self.monitor)
        self.base_revision = self.mod.revision
        self.next_batch = 0
        self.affected: List[float] = []
        self.deltas: List[int] = []
        self.service.reset()

    def wal_frames(self) -> int:
        return int(self.service.registry.get("repro_persistence_wal_appends_total").value)

    def reads(self) -> List[QueryRequest]:
        """The trailing window of every monitored vehicle.

        The update stream is the scenario's; what the run's seed moves is
        where each read window starts, by up to ``SLOT_JITTER``.
        """
        _, horizon = self.mod.common_time_span()
        start = horizon - self.sliding - self.rng(2, self.next_batch).uniform(0.0, SLOT_JITTER)
        return [QueryRequest(query_id, float(start), horizon) for query_id in self.query_ids]

    def ingest(self) -> None:
        if self.next_batch >= len(self.scenario.batches):
            raise Exhausted(f"all {self.next_batch} scripted batches applied")
        for object_id, reports in self.scenario.batches[self.next_batch].items():
            self.monitor.ingest(object_id, reports)
        self.next_batch += 1

    def apply(self) -> None:
        report = self.monitor.apply()
        self.affected.append(len(report.affected_queries) / len(self.query_ids))
        self.deltas.append(len(report.events))

    async def op(self, index: int) -> OpResult:
        """One tick: the write, then the reads, one after the other.

        In sequence on purpose: on two cores a concurrent writer and
        readers would measure the interpreter lock.
        """
        result = OpResult()
        started = time.perf_counter()
        self.ingest()
        try:
            self.apply()
        except Exception:  # noqa: BLE001 - a failed batch is a counted outcome
            _report_failure("monitor.apply")
            result.failed += 1
        else:
            result.update_ms.append((time.perf_counter() - started) * 1e3)
            result.ok += 1
        checkpoint = None
        if (index + 1) % self.sizes.checkpoint_every == 0:
            # Beside the reads, so a checkpoint stall shows in their latency.
            checkpoint = asyncio.ensure_future(self.service.checkpoint())
        await _burst(self, self.reads(), result)
        if checkpoint is not None:
            await checkpoint
        return result

    async def traced_op(self, index: int, tracer: Tracer) -> None:
        """One tick under spans; the reads taken apart at engine level.

        A full-fleet batch makes every engine behind the pool reload its
        index, so the replay builds one too before it answers the reads.
        """
        with tracer.op(index):
            with tracer.span("streaming.ingest"):
                self.ingest()
            with tracer.span("streaming.apply"):
                self.apply()
            with tracer.span("index.build"):
                index_now = self.mod.build_index("rtree")
            reads = self.reads()
            shard_safety_check(
                tracer, self.mod, [r.query_id for r in reads], reads[0].t_start, reads[0].t_end
            )
            for read in reads:
                context = replay_context(
                    tracer, self.mod, index_now, read.query_id,
                    read.t_start, read.t_end, self.counts,
                )
                with tracer.span("core.answer"):
                    answer_of(context, "sometime")
            if (index + 1) % self.sizes.checkpoint_every == 0:
                with tracer.span("persistence.checkpoint"):
                    self.service.persistence.checkpoint()

    async def finish(self) -> Dict[str, float]:
        """Crash-shaped copies of the data directory, and restarts from them."""
        await self.service.checkpoint()
        for _ in range(self.sizes.wal_tail_batches):
            self.ingest()
            self.apply()
        self.service.persistence.flush()
        live = await self.service.submit_all(self.reads())
        expected = {r.request.query_id: r.answer for r in live}
        seconds = []
        for attempt in range(self.sizes.restarts):
            copy = os.path.join(self.dir, f"crash-{attempt}")
            shutil.copytree(self.data_dir, copy)
            probe = live[attempt % len(live)].request
            started = time.perf_counter()
            restored = QueryService(None, data_dir=copy, persistence_fsync="batch")
            await restored.start()
            try:
                first = await restored.submit(probe)
                verified = (
                    first.answer == expected[probe.query_id]
                    and restored.mod.revision == self.mod.revision
                )
                seconds.append(time.perf_counter() - started)
                self.expect(verified, f"restart {attempt}: first answer or revision")
                if attempt == 0:
                    for response in await restored.submit_all(self.reads()):
                        self.expect(
                            response.answer == expected[response.request.query_id],
                            f"restored store: {response.request}",
                        )
            finally:
                await restored.stop()
        return {"restart_s": statistics.median(seconds)}

    async def verify(self) -> None:
        for standing in self.monitor.standing_queries:
            lo, hi = self.monitor.resolve_window(standing.key)
            self.expect(
                answers_equal(
                    self.monitor.answers(standing.key),
                    reference_answer(self.mod, standing.query_id, lo, hi),
                ),
                f"standing query {standing.key} over [{lo}, {hi}]",
            )
        engine = QueryEngine(self.mod)
        for response in await self.service.submit_all(self.reads()):
            request = response.request
            self.expect(
                response.answer
                == engine.answer(request.query_id, request.t_start, request.t_end)
                and response.revision == self.mod.revision,
                f"{request} ({response.backend})",
            )

    def vacuity(self) -> List[str]:
        problems = []
        affected = statistics.mean(self.affected)
        if affected < 0.5:
            problems.append(f"streaming.affected_ratio {affected:.2f} is below 0.5")
        mutations = self.mod.revision - self.base_revision
        if self.wal_frames() != mutations:
            problems.append(f"{self.wal_frames()} WAL frames for {mutations} mutations")
        return problems

    def layer_metrics(self) -> Dict[str, float]:
        return {
            "streaming.affected_ratio": statistics.mean(self.affected),
            "streaming.deltas_per_batch": statistics.mean(self.deltas),
        }

    async def tear_down(self) -> None:
        await super().tear_down()
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (DashRefresh, AdhocCold, RankSweep, StreamMixed)}

#: One line each, for ``BENCHMARK.json`` and the run's printout.
WHY = {
    "dash_refresh": "repeated fingerprints with a trickle of writes, so caches, "
    "coalescing and invalidation do the work and the kernels do little",
    "adhoc_cold": "windows that never repeat, so every cache is bypassed and the "
    "filter, difference, envelope and band kernels do the work",
    "rank_sweep": "rank statements through the query language, so the planner and "
    "the k-level sweep do the work and the service is bypassed",
    "stream_mixed": "full-fleet update batches beside reads on a durable service, "
    "so ingest, index refresh, the WAL and checkpoints do the work",
}
