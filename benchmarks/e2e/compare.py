"""Compare two sets of end-to-end results, metric by metric, workload by workload.

    python benchmarks/e2e/compare.py A B

``A`` is the parent (or the first set of runs), ``B`` the change (or the
second set).  Each is a ``results.json`` written by ``run.py``, or a
directory holding several of them (``run.py --repeat K`` writes such a
directory).  For every end-to-end metric and workload it prints how much
worse ``B``'s median is than ``A``'s, against the metric's bound, and marks
the pair

* ``regressed``  - worse by more than the bound (for ``failed_share``: any
  increase at all);
* ``unresolved`` - the spread on either side is wider than the bound, so the
  pair cannot be called unchanged.  The spread is the distance between the
  quartiles of the runs when a side has several runs, and of the run's own
  rounds when it has one;
* ``ok``         - neither.

Exit code 0 only when every pair is ``ok``.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Optional

from run import END_TO_END, iqr


def load(path: str) -> List[Dict]:
    """Every untraced results file at ``path`` (one file, or a directory of them)."""
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "results*.json")))
    else:
        files = [path]
    runs = []
    for name in files:
        with open(name) as handle:
            record = json.load(handle)
        if not record.get("traced"):
            runs.append(record)
    if not runs:
        raise SystemExit(f"{path}: no untraced results.json found")
    return runs


def side(runs: List[Dict], workload: str, metric: str):
    """``(median, spread share)`` of one metric on one side, or ``None``."""
    entries = [run["workloads"][workload] for run in runs if workload in run["workloads"]]
    if metric == "failed_share":
        values = [entry["failed_share"] for entry in entries]
        return (statistics.median(values), 0.0) if values else None
    cells = [entry["metrics"].get(metric) for entry in entries]
    cells = [cell for cell in cells if cell and cell["value"] is not None]
    if not cells:
        return None
    values = [cell["value"] for cell in cells]
    median = statistics.median(values)
    spread = iqr(values) if len(values) > 1 else (cells[0]["iqr"] or 0.0)
    return median, (spread / median if median else 0.0)


def verdict(metric: str, a, b) -> tuple:
    """``(worse share, status)`` for one metric x workload pair."""
    (a_median, a_spread), (b_median, b_spread) = a, b
    if metric == "failed_share":
        return b_median - a_median, "regressed" if b_median > a_median else "ok"
    _, better, bound = END_TO_END[metric]
    change = (b_median - a_median) / a_median
    worse = change if better == "lower" else -change
    if worse > bound:
        return worse, "regressed"
    if max(a_spread, b_spread) > bound:
        return worse, "unresolved"
    return worse, "ok"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a_runs, b_runs = load(argv[0]), load(argv[1])
    workloads = [w for w in a_runs[0]["workloads"] if w in b_runs[0]["workloads"]]
    print(
        f"{'workload':<13} {'metric':<22} {'A':>12} {'B':>12} "
        f"{'worse':>8} {'bound':>6} {'spread A/B':>13}  status"
    )
    bad = 0
    for workload in workloads:
        for metric in (*END_TO_END, "failed_share"):
            a, b = side(a_runs, workload, metric), side(b_runs, workload, metric)
            if a is None or b is None:
                continue
            worse, status = verdict(metric, a, b)
            bound = "any" if metric == "failed_share" else f"{END_TO_END[metric][2]:.2f}"
            print(
                f"{workload:<13} {metric:<22} {a[0]:>12.5g} {b[0]:>12.5g} "
                f"{worse:>+8.1%} {bound:>6} {a[1]:>6.1%}/{b[1]:<6.1%} {status}"
            )
            bad += status != "ok"
    print(f"{bad} pair(s) not ok" if bad else "every pair ok")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
