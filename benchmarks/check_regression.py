"""Perf-regression gate: compare bench records against checked-in baselines.

Each file in ``benchmarks/baselines/`` names one bench and its gated
metrics::

    {
      "schema_version": 1,
      "bench": "persistence",
      "gates": [
        {"metric": "restore_ms", "direction": "lower", "baseline": 40.0},
        {"metric": "restore_speedup_vs_rebuild", "direction": "higher", "baseline": 3.0}
      ]
    }

For a ``"lower"``-is-better metric the gate fails when the measured value
exceeds ``baseline * (1 + tolerance)``; for ``"higher"`` when it falls below
``baseline * (1 - tolerance)``.  The default tolerance is 0.30 (a >30%
slowdown of a gated hot path fails the job) and can be overridden per gate
with a ``"tolerance"`` field.  Baselines are deliberately generous absolute
values recorded from smoke runs — the gate catches order-of-magnitude
regressions (an accidentally disabled cache, a quadratic path), not CI
machine jitter.

A gate may record ``"spread": [low, high]``, the range its metric read over
repeated quick runs of an unchanged tree.  When the limit lies inside that
range the gate passes or fails by chance on such a box, so its row says
"not discriminating"; whether it passes is decided as before.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py --quick
    python benchmarks/check_regression.py --results-dir . \
        --baselines benchmarks/baselines
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from common import SCHEMA_VERSION, default_output_path

DEFAULT_TOLERANCE = 0.30


def check_bench(baseline: dict, results_dir: str, tolerance: float) -> list:
    """Evaluate one baseline file; returns a list of row tuples.

    Each row is ``(bench, metric, baseline, measured, limit, ok, note)``;
    ``note`` ends in "not discriminating" when the limit lies inside the
    gate's recorded spread.
    """
    bench = baseline["bench"]
    rows = []
    result_path = os.path.join(results_dir, default_output_path(bench))
    if not os.path.exists(result_path):
        return [(bench, "<record>", None, None, None, False,
                 f"missing {result_path}")]
    with open(result_path) as handle:
        record = json.load(handle)
    if record.get("schema_version") != SCHEMA_VERSION:
        return [(bench, "<schema>", None, None, None, False,
                 f"schema_version {record.get('schema_version')!r} != {SCHEMA_VERSION}")]
    metrics = record.get("metrics", {})
    for gate in baseline.get("gates", []):
        metric = gate["metric"]
        direction = gate.get("direction", "lower")
        base = float(gate["baseline"])
        tol = float(gate.get("tolerance", tolerance))
        if metric not in metrics:
            rows.append((bench, metric, base, None, None, False, "metric missing"))
            continue
        value = float(metrics[metric])
        if direction == "lower":
            limit = base * (1.0 + tol)
            ok = value <= limit
        elif direction == "higher":
            limit = base * (1.0 - tol)
            ok = value >= limit
        else:
            rows.append((bench, metric, base, value, None, False,
                         f"unknown direction {direction!r}"))
            continue
        note = direction
        spread = gate.get("spread")
        if spread is not None and spread[0] <= limit <= spread[1]:
            note += f", not discriminating: spread {spread[0]:.2f}-{spread[1]:.2f}"
        rows.append((bench, metric, base, value, limit, ok, note))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--results-dir", type=str, default=".",
        help="directory holding the BENCH_<name>.json records",
    )
    parser.add_argument(
        "--baselines", type=str,
        default=os.path.join(os.path.dirname(__file__), "baselines"),
        help="directory of baseline gate files",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="default allowed relative slack (0.30 = 30%%)",
    )
    args = parser.parse_args()

    baseline_paths = sorted(glob.glob(os.path.join(args.baselines, "*.json")))
    if not baseline_paths:
        print(f"no baseline files under {args.baselines}", file=sys.stderr)
        return 1

    failures = 0
    header = f"{'bench':<14}{'metric':<34}{'baseline':>10}{'measured':>10}{'limit':>10}  status"
    print(header)
    print("-" * len(header))
    for path in baseline_paths:
        with open(path) as handle:
            baseline = json.load(handle)
        for bench, metric, base, value, limit, ok, note in check_bench(
            baseline, args.results_dir, args.tolerance
        ):
            status = "ok" if ok else "FAIL"
            if not ok or "not discriminating" in note:
                status += f" ({note})"
            fmt = lambda x: "-" if x is None else f"{x:.2f}"
            print(
                f"{bench:<14}{metric:<34}{fmt(base):>10}{fmt(value):>10}"
                f"{fmt(limit):>10}  {status}"
            )
            if not ok:
                failures += 1
    if failures:
        print(f"\n{failures} gate(s) failed")
        return 1
    print("\nall gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
