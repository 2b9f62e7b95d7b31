"""Unified benchmark runner: one command, one record file per bench.

Runs every registered benchmark (or a ``--only`` subset) through its
``run_bench(quick=...)`` entry point and writes one schema-versioned
``BENCH_<name>.json`` per bench into ``--out-dir`` (see
``benchmarks/common.py`` for the record layout).  This is what CI runs in
smoke mode, uploading the records as artifacts and gating them with
``check_regression.py``::

    PYTHONPATH=src python benchmarks/run_all.py --quick
    PYTHONPATH=src python benchmarks/run_all.py --only persistence planner
    PYTHONPATH=src python benchmarks/run_all.py --list

The paper-figure and ablation benches (``bench_fig*``, ``bench_ablation*``)
are pytest-benchmark suites, not perf-trend benches, and are intentionally
not registered here.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
import traceback

from common import default_output_path, write_record

#: name -> (module, one-line description).  Each module exposes
#: ``run_bench(quick: bool) -> (config, metrics)`` and a ``BENCH_NAME``.
REGISTRY = {
    "columnar": (
        "bench_columnar",
        "columnar bulk kernels vs scalar filtering/box/band paths",
    ),
    "obs": (
        "bench_obs",
        "observability overhead: instrumented vs null-registry hot path",
    ),
    "persistence": (
        "bench_persistence",
        "warm restart from snapshot+WAL vs cold JSON rebuild",
    ),
    "planner": (
        "bench_planner",
        "compiled query plans vs naive per-statement interpretation",
    ),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--only", type=str, nargs="+", default=None, choices=sorted(REGISTRY),
        help="run only these benches",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smoke configurations for CI"
    )
    parser.add_argument(
        "--out-dir", type=str, default=".",
        help="directory receiving the BENCH_<name>.json records",
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered benches and exit"
    )
    args = parser.parse_args()

    if args.list:
        for name, (module_name, description) in sorted(REGISTRY.items()):
            print(f"{name:14s} {module_name:22s} {description}")
        return 0

    selected = args.only or sorted(REGISTRY)
    failures = []
    for name in selected:
        module_name, description = REGISTRY[name]
        print(f"=== {name}: {description} ===")
        started = time.perf_counter()
        try:
            module = importlib.import_module(module_name)
            config, metrics = module.run_bench(quick=args.quick)
            path = os.path.join(args.out_dir, default_output_path(name))
            write_record(path, name, config, metrics)
        except Exception:
            traceback.print_exc()
            failures.append(name)
            continue
        print(f"  wrote {path} ({time.perf_counter() - started:.1f}s)\n")

    if failures:
        print(f"FAILED benches: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
