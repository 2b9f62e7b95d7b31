"""The end-to-end benchmark: four workloads, checked answers, named metrics.

    PYTHONPATH=src python benchmarks/e2e/run.py [--workload NAME] [--seed S]
        [--seconds T] [--trace 0|1 | --traced] [--smoke] [--out DIR] [--repeat K]

With ``--workload`` it runs that one workload in this process and prints,
as its last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without it, it runs every workload, each in a
process of its own (so peak memory is the workload's own and the numbers
are the ones a single-workload run gives), and writes ``results.json``.

End-to-end metrics come from an untraced pass (``--trace 0``).  Per-layer
metrics come from a separate traced pass (``--trace 1``) that times calls
into each layer's public functions under the benchmark's own spans and
writes them to ``trace.json`` (``trace-<workload>.json`` when it ran them all).

The load generator is this process: one asyncio loop, closed loops only.
Exit code 0 means every answer checked matched its oracle and no workload
measured nothing.
"""

from __future__ import annotations

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src"))
sys.path.insert(0, _HERE)

import argparse  # noqa: E402
import asyncio  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import numpy as np  # noqa: E402

from repro.obs.tracing import SpanRecorder, capture  # noqa: E402

from layers import PER_LAYER, SPAN_METRICS, median_ms, probe_layers  # noqa: E402
from spans import OP, Tracer  # noqa: E402
from workloads import SMOKE, WHY, WORK_DIR, WORKLOADS, Exhausted, Sizes, Workload  # noqa: E402

#: The end-to-end metrics: unit, which way is better, and the share of the
#: parent's median by which a change may worsen the metric before it counts
#: as a regression.  The first five apply to every workload and are the ones
#: BENCHMARK.json gates; the last two exist on ``stream_mixed`` only and are
#: gated by compare.py.  ``failed_share`` (``failed / attempted``) is 0 on a
#: healthy run, so it travels as those two counts; any increase regresses.
END_TO_END: Dict[str, tuple] = {
    "throughput_ops_s": ("1/s", "higher", 0.20),
    "latency_p50_ms": ("ms", "lower", 0.20),
    "latency_p95_ms": ("ms", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("mb", "lower", 0.10),
    "update_apply_p50_ms": ("ms", "lower", 0.20),
    "restart_s": ("s", "lower", 0.25),
}

#: Measured on ``stream_mixed`` only, so not in the line the driver reads:
#: that line carries the metrics every workload has.
STREAM_ONLY = ("update_apply_p50_ms", "restart_s")

#: In-program spans whose totals go to trace.json as a cross-check only.
CROSS_CHECK_SPANS = ("engine.filter", "engine.kernel", "pool.answer_group", "monitor.apply")


def iqr(values: List[float]) -> float:
    """Distance between the first and third quartile (0 for one value)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return third - first


#: Seconds one calibration kernel takes on the reference box when nothing
#: else runs on it; the speed every normalised time is quoted at.
CALIBRATION_REFERENCE_S = 0.0019

#: Share of a round's time spent in the calibration kernel.
CALIBRATION_SHARE = 0.02

_CALIBRATION_VECTOR = np.arange(100_000, dtype=float)


def calibration_kernel() -> None:
    """A fixed ~2 ms of interpreter and NumPy work, the mix the program runs."""
    total = 0
    for i in range(30_000):
        total += i * i % 7
    np.sqrt(_CALIBRATION_VECTOR * _CALIBRATION_VECTOR + 1.0).sum()


class MachineSpeed:
    """How fast the box ran during a round, from kernels run between its ops.

    On a shared 2-core box the same code runs 20-50 % slower for tens of
    seconds at a time (a pure loop shows it, in CPU time as in wall time), so
    ten runs of one commit disagree by more than the bounds.  The kernel is
    slowed with the ops it sits between; quoting times at the speed the
    kernel saw takes most of that out (ten-run spreads a half to a quarter
    as wide), and leaves what the program does untouched: a change in the
    program does not change the kernel.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.runs = 0

    def sample(self, work_seconds: float) -> None:
        """Run kernels until they make up their share of the round so far."""
        while not self.runs or self.seconds < CALIBRATION_SHARE * work_seconds:
            started = time.perf_counter()
            calibration_kernel()
            self.seconds += time.perf_counter() - started
            self.runs += 1

    @property
    def factor(self) -> float:
        """What to multiply a measured time by to quote it at reference speed."""
        return CALIBRATION_REFERENCE_S / (self.seconds / self.runs)


class Phase:
    """What one measured phase saw, round by round."""

    def __init__(self) -> None:
        self.rounds: List[Dict[str, float]] = []
        self.latencies_ms: List[float] = []
        self.op_seconds: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.next_index = 0
        self.seconds = 0.0


async def measure(workload: Workload, rounds: int, phase: Phase) -> None:
    """Run ``rounds`` rounds of ``workload.round_ops`` ops, back to back.

    Each round records its metrics twice: as measured (``raw``), and quoted
    at reference machine speed (see :class:`MachineSpeed`).
    """
    for _ in range(rounds):
        gc.collect()
        latencies: List[float] = []
        updates: List[float] = []
        ok = 0
        work = 0.0
        speed = MachineSpeed()
        exhausted = False
        for _ in range(workload.round_ops):
            begun = time.perf_counter()
            try:
                result = await workload.op(phase.next_index)
            except Exhausted as stop:
                print(f"[e2e] {workload.name}: {stop}; phase cut short", file=sys.stderr)
                exhausted = True
                break
            phase.op_seconds.append(time.perf_counter() - begun)
            work += phase.op_seconds[-1]
            speed.sample(work)
            phase.next_index += 1
            latencies.extend(result.latencies_ms)
            updates.extend(result.update_ms)
            ok += result.ok
            phase.attempted += result.ok + result.failed
            phase.failed += result.failed
        phase.seconds += work
        if latencies:
            raw = {
                "throughput_ops_s": ok / work,
                "latency_p50_ms": float(np.percentile(latencies, 50)),
                "latency_p95_ms": float(np.percentile(latencies, 95)),
            }
            if updates:
                raw["update_apply_p50_ms"] = statistics.median(updates)
            factor = speed.factor
            record = {
                metric: value / factor if metric == "throughput_ops_s" else value * factor
                for metric, value in raw.items()
            }
            record["raw"] = raw
            record["machine_speed"] = 1.0 / factor
            phase.rounds.append(record)
            phase.latencies_ms.extend(latencies)
        if exhausted:
            return


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


async def run_untraced(name: str, seed: int, sizes: Sizes, seconds: float) -> Dict:
    """Set up (several times), measure, verify; the end-to-end metrics.

    ``seconds`` sets how many ops a round holds (see
    ``Workload.ops_per_round``); on the reference box the measured phase
    then lasts about that long.
    """
    setups = []
    repeats = min(sizes.setup_repeats, WORKLOADS[name].max_setups)
    for attempt in range(repeats):
        workload = WORKLOADS[name](seed, sizes)
        gc.collect()
        started = time.perf_counter()
        await workload.set_up()
        setups.append(time.perf_counter() - started)
        if attempt < repeats - 1:
            await workload.tear_down()
    phase = Phase()
    workload.round_ops = workload.ops_per_round(seconds / sizes.rounds)
    try:
        await measure(workload, sizes.rounds, phase)
        extra = await workload.finish()
        peak = peak_rss_mb()
        await workload.verify()
        problems = workload.vacuity()
    finally:
        await workload.tear_down()
    samples: Dict[str, List[float]] = {
        metric: [r[metric] for r in phase.rounds if metric in r] for metric in END_TO_END
    }
    # Rounds that run the same ops are summed up by their median; rounds
    # that each cost more than the last, by their mean (see Workload.rounds_grow).
    center = statistics.mean if workload.rounds_grow else statistics.median
    metrics = {m: summarize(v, END_TO_END[m][0], center) for m, v in samples.items()}
    metrics["setup_s"] = summarize(setups, "s")
    metrics["peak_rss_mb"] = summarize([peak], "mb")
    for metric, value in extra.items():
        metrics[metric] = summarize([value], END_TO_END[metric][0])
    for metric, entry in metrics.items():
        as_measured = [r["raw"][metric] for r in phase.rounds if metric in r["raw"]]
        if as_measured:
            entry["raw"] = center(as_measured)
    return assemble(
        workload, phase, problems, metrics,
        info={
            "machine_speed": statistics.median(r["machine_speed"] for r in phase.rounds),
            "latency_samples": len(phase.latencies_ms),
            "service.latency_p99_ms": float(np.percentile(phase.latencies_ms, 99)),
            "ops": len(phase.op_seconds),
            "measured_seconds": phase.seconds,
            "rounds": phase.rounds,
        },
    )


def summarize(values: List[float], unit: str, center=statistics.median) -> Dict[str, object]:
    """Median (or ``center``) with the IQR beside it; ``None`` where the metric does not apply."""
    if not values:
        return {"value": None, "unit": unit, "iqr": None, "samples": 0}
    return {
        "value": center(values),
        "unit": unit,
        "iqr": iqr(values),
        "samples": len(values),
    }


def assemble(workload: Workload, phase: Phase, problems, metrics, info) -> Dict:
    failed = phase.failed + workload.mismatches
    attempted = phase.attempted + workload.checked
    for problem in problems:
        print(f"[e2e] {workload.name}: measured nothing: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / max(attempted, 1),
        "oracle_checks": workload.checked,
        "vacuity": problems,
        "metrics": metrics,
        "info": info,
    }


async def run_traced(name: str, seed: int, sizes: Sizes, out_dir: str) -> Dict:
    """The per-layer pass: reference ops, the same work under spans, probes."""
    workload = WORKLOADS[name](seed, sizes)
    await workload.set_up()
    tracer = Tracer()
    phase = Phase()
    trace_ops = max(2, round(sizes.trace_ops * workload.trace_ops_factor))
    workload.round_ops = trace_ops
    try:
        # Reference: one round of real ops, untraced, in this same process.
        await measure(workload, 1, phase)
        service_metrics = (
            workload.service_layer_metrics() if workload.service is not None else {}
        )
        workload.prepare_tracing()
        first = 0 if workload.replays_reference_ops else trace_ops
        for index in range(first, first + trace_ops):
            await workload.traced_op(index, tracer)
        reference = phase.op_seconds
        traced = tracer.durations(OP)
        cross_check = await in_program_totals(workload, first + trace_ops)
        probes, notes = await probe_layers(
            workload.mod,
            seed,
            queries=sizes.probe_queries,
            width=8.0,
            scale_sizes=sizes.scale_sweep,
            work_dir=WORK_DIR,
        )
        await workload.verify()
        problems = workload.vacuity()
    finally:
        await workload.tear_down()

    values = dict.fromkeys(PER_LAYER, 0.0)
    for span_name, metric in SPAN_METRICS.items():
        values[metric] = median_ms(tracer.durations(span_name))
    values.update(probes)
    values.update(workload.counts.metrics(tracer))
    values.update(workload.layer_metrics())
    values.update(service_metrics)  # the workload's own service.start_ms wins
    if workload.service is not None:
        values["service.latency_p99_ms"] = float(np.percentile(phase.latencies_ms, 99))
        values["service.latency_p99_samples"] = len(phase.latencies_ms)
    self_times = tracer.self_times()
    layer_seconds = sum(s for layer, s in self_times.items() if layer != OP)
    untraced_op = statistics.mean(reference)
    values["obs.trace_overhead_share"] = (statistics.mean(traced) - untraced_op) / untraced_op
    values["budget.unattributed_share"] = 1.0 - (layer_seconds / len(traced)) / untraced_op

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "trace.json"), "w") as handle:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "spans": tracer.spans,
                "self_seconds": self_times,
                "reference_op_seconds": reference,
                "in_program_span_totals": cross_check,
                "notes": notes,
            },
            handle,
        )
    for note in notes:
        print(f"[e2e] {name}: {note}", file=sys.stderr)
    return assemble(
        workload, phase, problems,
        {m: {"value": values[m], "unit": unit} for m, unit in PER_LAYER.items()},
        info={
            "self_seconds": self_times,
            "traced_ops": len(traced),
            "reference_ops": len(reference),
            "in_program_span_totals": cross_check,
        },
    )


async def in_program_totals(workload: Workload, first_index: int) -> Dict[str, float]:
    """A few real ops under the program's own tracing: a cross-check only.

    No named metric is derived from these; they sit in trace.json so a
    reader can see whether the outside-timed budget and the program's own
    spans tell the same story.
    """
    recorder = SpanRecorder(capacity=4096)
    totals = dict.fromkeys(CROSS_CHECK_SPANS, 0.0)
    with capture(recorder):
        for index in range(first_index, first_index + 2):
            try:
                await workload.op(index)
            except Exhausted:
                break
    for root in recorder.spans():
        for span in root.walk():
            if span.name in totals and span.duration is not None:
                totals[span.name] += span.duration
    return totals


def environment() -> Dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
        "fsync_policy": "batch",
    }


def print_metrics(name: str, result: Dict) -> None:
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        if value is None:
            print(f"{name:<13} {metric:<42} = n/a")
            continue
        spread = (
            f"  (iqr {entry['iqr']:.4g}, n={entry['samples']})" if entry.get("samples") else ""
        )
        raw = f"  [as measured {entry['raw']:.6g}]" if "raw" in entry else ""
        print(f"{name:<13} {metric:<42} = {value:.6g} {entry['unit']}{spread}{raw}")
    print(
        f"{name:<13} {'failed_share':<42} = {result['failed_share']:.6g} share"
        f"  ({result['failed']} of {result['attempted']}, "
        f"{result['oracle_checks']} oracle checks)"
    )


def contract_line(result: Dict) -> str:
    """The result in the shape the driver reads: numbers only, all digits."""
    metrics = {
        metric: {"value": entry["value"], "unit": entry["unit"]}
        for metric, entry in result["metrics"].items()
        if metric not in STREAM_ONLY
    }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def stop_resource_tracker() -> None:
    """End multiprocessing's tracker process, and wait until it has ended.

    The first shared-memory segment (the process-backend probe makes one)
    starts a tracker process that the interpreter leaves running at exit:
    it ends on its own a moment after its parent, unwaited.  A benchmark
    run must leave no process behind, so the tracker is closed here, the
    way ``ResourceTracker._stop`` does it on the Pythons that have one.
    """
    tracker = resource_tracker._resource_tracker
    if tracker._fd is None:
        return
    os.close(tracker._fd)  # its "parent is alive" pipe: closing it ends main()
    tracker._fd = None
    os.waitpid(tracker._pid, 0)
    tracker._pid = None


def run_one(args, sizes: Sizes) -> int:
    """One workload, in this process."""
    try:
        if args.trace:
            result = asyncio.run(run_traced(args.workload, args.seed, sizes, args.out))
        else:
            result = asyncio.run(run_untraced(args.workload, args.seed, sizes, args.seconds))
    finally:
        stop_resource_tracker()
    print(f"# {args.workload}: {WHY[args.workload]}")
    print_metrics(args.workload, result)
    if args.result_file:
        with open(args.result_file, "w") as handle:
            json.dump(result, handle)
    print(contract_line(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in a child process; writes results.json."""
    os.makedirs(args.out, exist_ok=True)
    status = 0
    for turn in range(1, args.repeat + 1):
        results = {}
        for name in WORKLOADS:
            result_file = os.path.join(args.out, f"result-{name}.json")
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", args.out, "--result-file", result_file,
            ] + (["--smoke"] if args.smoke else [])
            status = subprocess.run(command).returncode or status
            if os.path.exists(result_file):
                with open(result_file) as handle:
                    results[name] = json.load(handle)
                os.remove(result_file)
            if args.trace:
                # Each child wrote its own trace.json; keep them apart.
                os.replace(
                    os.path.join(args.out, "trace.json"),
                    os.path.join(args.out, f"trace-{name}.json"),
                )
        record = {
            "schema": 1,
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "traced": bool(args.trace),
            "environment": environment(),
            "workloads": results,
        }
        stem = "results-traced" if args.trace else "results"
        suffix = f"-{turn}" if args.repeat > 1 else ""
        path = os.path.join(args.out, f"{stem}{suffix}.json")
        with open(path, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
        print(f"# wrote {path}")
        if len(results) < len(WORKLOADS):
            status = status or 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (untraced pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, a few ops")
    parser.add_argument("--out", default=os.path.join(WORK_DIR, "out"))
    parser.add_argument("--repeat", type=int, default=1,
                        help="without --workload: run the whole set this many times")
    parser.add_argument("--result-file", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sizes = SMOKE if args.smoke else Sizes()
    if args.seconds is None:
        args.seconds = sizes.seconds
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args)
    return run_one(args, sizes)


if __name__ == "__main__":
    raise SystemExit(main())
