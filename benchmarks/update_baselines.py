"""Regenerate ``benchmarks/baselines/*.json`` gate values from a local run.

Baselines drift as kernels get faster (or CI machines change); refreshing
them by hand invites typos and forgotten gates.  This helper reads the
``BENCH_<name>.json`` records of a local run and rewrites each baseline
file's ``"baseline"`` values from the measured metrics, with a headroom
factor so ordinary machine jitter does not trip the gate:

* ``direction: "lower"``  → new baseline = measured × headroom
* ``direction: "higher"`` → new baseline = measured ÷ headroom

Gate structure (metrics, directions, per-gate tolerances, notes) is
preserved — only the numbers move.  Gates carrying ``"pin": true`` hold
fixed *policy* thresholds (e.g. the columnar 2x kernel floors) and
are never rewritten from measurements.  Always inspect the diff first::

    PYTHONPATH=src python benchmarks/run_all.py --quick
    python benchmarks/update_baselines.py --dry-run
    python benchmarks/update_baselines.py            # write the new values

Baselines gate the --quick smoke configurations, so regenerate from a
``--quick`` run unless you are deliberately re-anchoring to full runs.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from common import SCHEMA_VERSION, default_output_path

DEFAULT_HEADROOM = 1.5


def _round_sig(value: float, digits: int = 3) -> float:
    """Round to a few significant digits so baselines stay human-readable."""
    if value == 0:
        return 0.0
    from math import floor, log10

    return round(value, -int(floor(log10(abs(value)))) + digits - 1)


def refresh_baseline(
    baseline: dict, results_dir: str, headroom: float
) -> list:
    """Update one baseline dict in place; returns change rows.

    Each row is ``(bench, metric, old, new, note)``; ``new`` is ``None``
    when the gate could not be refreshed (missing record or metric).
    """
    bench = baseline["bench"]
    rows = []
    result_path = os.path.join(results_dir, default_output_path(bench))
    if not os.path.exists(result_path):
        return [(bench, "<record>", None, None, f"missing {result_path}")]
    with open(result_path) as handle:
        record = json.load(handle)
    if record.get("schema_version") != SCHEMA_VERSION:
        return [(bench, "<schema>", None, None,
                 f"schema_version {record.get('schema_version')!r} != {SCHEMA_VERSION}")]
    metrics = record.get("metrics", {})
    for gate in baseline.get("gates", []):
        metric = gate["metric"]
        old = float(gate["baseline"])
        if gate.get("pin"):
            rows.append((bench, metric, old, old, "pinned"))
            continue
        if metric not in metrics:
            rows.append((bench, metric, old, None, "metric missing from record"))
            continue
        measured = float(metrics[metric])
        direction = gate.get("direction", "lower")
        if direction == "higher":
            new = _round_sig(measured / headroom)
        else:
            new = _round_sig(measured * headroom)
        gate["baseline"] = new
        rows.append((bench, metric, old, new, direction))
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
        help="directory of baseline gate files to rewrite",
    )
    parser.add_argument(
        "--headroom", type=float, default=DEFAULT_HEADROOM,
        help="slack factor applied to measured values (default 1.5)",
    )
    parser.add_argument(
        "--only", type=str, nargs="+", default=None,
        help="refresh only these benches (by baseline file's 'bench' name)",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="print the old -> new diff without writing anything",
    )
    args = parser.parse_args()

    if args.headroom < 1.0:
        print("headroom below 1.0 would gate tighter than measured", file=sys.stderr)
        return 1
    baseline_paths = sorted(glob.glob(os.path.join(args.baselines, "*.json")))
    if not baseline_paths:
        print(f"no baseline files under {args.baselines}", file=sys.stderr)
        return 1

    failures = 0
    header = f"{'bench':<14}{'metric':<34}{'old':>10}{'new':>10}  note"
    print(header)
    print("-" * len(header))
    for path in baseline_paths:
        with open(path) as handle:
            baseline = json.load(handle)
        if args.only and baseline.get("bench") not in args.only:
            continue
        rows = refresh_baseline(baseline, args.results_dir, args.headroom)
        changed = False
        for bench, metric, old, new, note in rows:
            fmt = lambda x: "-" if x is None else f"{x:.2f}"
            print(f"{bench:<14}{metric:<34}{fmt(old):>10}{fmt(new):>10}  {note}")
            if new is None:
                failures += 1
            elif new != old:
                changed = True
        if changed and not args.dry_run:
            with open(path, "w") as handle:
                json.dump(baseline, handle, indent=2)
                handle.write("\n")
            print(f"  wrote {path}")

    if args.dry_run:
        print("\ndry run: nothing written")
    if failures:
        print(f"\n{failures} gate(s) could not be refreshed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
