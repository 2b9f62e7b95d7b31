"""Benchmark: compiled query plans vs the naive per-statement interpreter.

Drives a dashboard-style statement mix (every Section-4 category, full and
partial windows, repeated refresh passes) over
:func:`~repro.workloads.scenarios.multi_query_fleet` twice:

* **naive** — every statement interpreted alone through
  :func:`~repro.query_language.execute_query_naive` (a fresh
  ``QueryContext.from_mod`` per call: no index, no cache, no fusion —
  how statements ran before the planner);
* **planned** — the same statements compiled by one reusable
  :class:`~repro.query_language.QueryExecutor` into fused
  ``prepare_batch`` groups (timing includes the executor construction, so
  the index build is paid inside the measured window).

Byte-identical answers are asserted for every statement *before* any
timing runs; the reported ``planned_speedup_vs_naive`` is what
``baselines/planner.json`` gates in CI (must stay >= 2x).  Run with::

    PYTHONPATH=src python benchmarks/bench_planner.py
    PYTHONPATH=src python benchmarks/bench_planner.py --quick
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Tuple

from repro.query_language import QueryExecutor, execute_query_naive
from repro.workloads.scenarios import multi_query_fleet

from common import default_output_path, write_record

BENCH_NAME = "planner"


def build_statements(query_ids, t_lo: float, t_hi: float) -> List[str]:
    """The dashboard mix: every category, full and half windows."""
    half = t_lo + (t_hi - t_lo) / 2
    texts: List[str] = []
    for query_id in query_ids:
        full = f"TIME IN [{t_lo}, {t_hi}]"
        partial = f"TIME IN [{t_lo}, {half}]"
        texts.extend(
            [
                f"SELECT T FROM MOD WHERE EXISTS {full} "
                f"AND PROBABILITY_NN(T, '{query_id}', TIME) > 0",
                f"SELECT T FROM MOD WHERE FORALL {full} "
                f"AND PROBABILITY_NN(T, '{query_id}', TIME) > 0",
                f"SELECT T FROM MOD WHERE FRACTION {full} >= 0.25 "
                f"AND PROBABILITY_NN(T, '{query_id}', TIME) > 0",
                f"SELECT T FROM MOD WHERE EXISTS {full} "
                f"AND RANK_NN(T, '{query_id}', TIME) <= 3",
                f"SELECT T FROM MOD WHERE EXISTS {partial} "
                f"AND PROBABILITY_NN(T, '{query_id}', TIME) > 0",
                f"SELECT T FROM MOD WHERE FRACTION {partial} >= 0.5 "
                f"AND PROBABILITY_NN(T, '{query_id}', TIME) > 0",
            ]
        )
    return texts


def assert_equality(mod, texts: List[str]) -> None:
    """Planned answers must match the oracle byte-for-byte before timing."""
    planned = QueryExecutor(mod).execute_many(texts)
    for position, text in enumerate(texts):
        oracle = execute_query_naive(text, mod)
        if planned[position].object_ids != oracle.object_ids:
            raise AssertionError(
                f"planned answer diverged from the naive oracle for:\n{text}\n"
                f"planned={planned[position].object_ids}\n"
                f"oracle ={oracle.object_ids}"
            )


def run_bench(
    quick: bool = False,
    num_vehicles: int | None = None,
    num_queries: int | None = None,
    passes: int | None = None,
) -> Tuple[Dict, Dict[str, float]]:
    """Run the comparison; returns ``(config, metrics)`` for the record schema."""
    num_vehicles = num_vehicles or (40 if quick else 60)
    num_queries = num_queries or (6 if quick else 8)
    passes = passes or (2 if quick else 3)
    config = {
        "num_vehicles": num_vehicles,
        "num_queries": num_queries,
        "passes": passes,
        "quick": quick,
    }

    mod, query_ids = multi_query_fleet(
        num_vehicles=num_vehicles, num_queries=num_queries
    )
    t_lo, t_hi = mod.common_time_span()
    texts = build_statements(query_ids, t_lo, t_hi)

    assert_equality(mod, texts)

    started = time.perf_counter()
    for _ in range(passes):
        for text in texts:
            execute_query_naive(text, mod)
    naive_seconds = time.perf_counter() - started

    # The executor is constructed inside the measured window: the planned
    # side pays for its index build and cold cache, the refresh passes
    # then amortize both (which is the point of keeping it reusable).
    started = time.perf_counter()
    executor = QueryExecutor(mod)
    for _ in range(passes):
        executor.execute_many(texts)
    planned_seconds = time.perf_counter() - started

    cache = executor.cache_info()
    plan = executor.compile(texts)
    metrics = {
        "statements": float(len(texts) * passes),
        "fused_groups": float(len(plan.groups)),
        "naive_ms": naive_seconds * 1000.0,
        "planned_ms": planned_seconds * 1000.0,
        "planned_speedup_vs_naive": naive_seconds / planned_seconds,
        "context_cache_hits": float(cache.hits),
        "context_cache_misses": float(cache.misses),
    }
    print(
        f"{len(texts)} statements x {passes} passes over {num_vehicles} vehicles: "
        f"naive {metrics['naive_ms']:8.1f} ms | "
        f"planned {metrics['planned_ms']:7.1f} ms "
        f"({metrics['planned_speedup_vs_naive']:5.2f}x) | "
        f"{len(plan.groups)} groups | "
        f"cache {cache.hits}/{cache.hits + cache.misses} hits"
    )
    return config, metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--vehicles", type=int, default=None,
        help="fleet size (default 60, quick 40)",
    )
    parser.add_argument(
        "--queries", type=int, default=None,
        help="monitored vehicles (default 8, quick 6)",
    )
    parser.add_argument(
        "--passes", type=int, default=None,
        help="dashboard refresh passes (default 3, quick 2)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced configuration for smoke tests",
    )
    parser.add_argument(
        "--json", type=str, default=None,
        help=f"write the record to this JSON file (e.g. {default_output_path(BENCH_NAME)})",
    )
    args = parser.parse_args()

    print("compiled plans vs naive interpreter (equality asserted before timing)")
    config, metrics = run_bench(
        quick=args.quick,
        num_vehicles=args.vehicles,
        num_queries=args.queries,
        passes=args.passes,
    )
    if args.json:
        write_record(args.json, BENCH_NAME, config, metrics)
        print(f"  wrote {args.json}")


if __name__ == "__main__":
    main()
