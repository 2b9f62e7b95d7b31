"""Observability tour: metrics, traces, and explain across the stack.

Walks the ``repro.obs`` subsystem end to end:

1. serve a burst of requests through a :class:`repro.service.QueryService`
   and read the whole stack's counters and latency histograms from one
   :meth:`~repro.service.QueryService.metrics_snapshot` — service,
   result cache, and pooled engines share one registry;
2. render the same registry in Prometheus text format, ready for a
   ``/metrics`` endpoint;
3. ``explain`` one request: a span tree showing where its milliseconds
   went, layer by layer;
4. trace a sharded batch and print its tree — one plan on one engine,
   so the engine's stages nest under the batch span;
5. turn on ``repro.*`` logging to watch a checkpoint and a restore happen.

Run with::

    python examples/observability.py
"""

from __future__ import annotations

import asyncio
import tempfile

from _support import scaled
from repro.obs import capture, configure_logging, render_tree
from repro.parallel import ShardedEngine
from repro.persistence import PersistentStore, restore
from repro.query_language import PlannedStatement
from repro.service import QueryService
from repro.workloads.scenarios import multi_query_fleet


async def metrics_and_explain_tour() -> None:
    mod, query_ids = multi_query_fleet(
        num_vehicles=scaled(60, 20), num_queries=scaled(12, 4), seed=5
    )
    lo, hi = mod.common_time_span()
    print(f"fleet of {len(mod)} vehicles, window {lo:.0f}-{hi:.0f} min")

    async with QueryService(mod) as service:
        requests = [PlannedStatement(query_id, lo, hi) for query_id in query_ids]
        await service.submit_all(requests)
        await service.submit_all(requests)  # the second burst hits the cache

        print("\n--- metrics snapshot (service keys) ---")
        snapshot = service.metrics_snapshot()
        for key in sorted(snapshot):
            entry = snapshot[key]
            if not key.startswith("repro_service"):
                continue
            if entry["type"] == "histogram":
                print(
                    f"  {key:44s} count={entry['count']:<4d}"
                    f" p50={entry['p50'] * 1e3:7.2f} ms"
                    f" p95={entry['p95'] * 1e3:7.2f} ms"
                )
            else:
                print(f"  {key:44s} {entry['value']:g}")

        stats = service.stats()
        print(
            f"\n  {stats.submitted} submitted, {stats.cache_hits} cache hits, "
            f"coalescing factor x{stats.coalescing_factor:.1f}"
        )

        print("\n--- prometheus exposition (excerpt) ---")
        lines = service.metrics_prometheus().splitlines()
        for line in lines[: scaled(12, 8)]:
            print(f"  {line}")
        print(f"  ... ({len(lines)} lines total)")

        print("\n--- explain: where did this answer's time go? ---")
        explained = await service.explain(
            PlannedStatement(query_ids[0], lo, hi, variant="always")
        )
        print(render_tree(explained.span))


def sharded_tracing_tour() -> None:
    mod, query_ids = multi_query_fleet(
        num_vehicles=scaled(40, 20), num_queries=scaled(8, 4), seed=5
    )
    lo, hi = mod.common_time_span()
    print("\n--- trace of a sharded batch ---")
    with ShardedEngine(mod, num_shards=2) as engine:
        engine.warm_up()
        with capture() as recorder:
            engine.answer_batch(query_ids, lo, hi)
        root = recorder.latest()
        print(render_tree(root))
        prepares = [s for s in root.walk() if s.name == "engine.prepare_batch"]
        print(f"  ({len(prepares)} batched preparation(s) under one plan)")


def logging_tour() -> None:
    print("\n--- repro.* logging (INFO shows checkpoints and restores) ---")
    import sys

    configure_logging("INFO", stream=sys.stdout)
    mod, _ = multi_query_fleet(num_vehicles=20, num_queries=2, seed=5)
    with tempfile.TemporaryDirectory() as data_dir:
        PersistentStore(data_dir, mod).close(checkpoint=True)
        restore(data_dir)


def main() -> None:
    asyncio.run(metrics_and_explain_tour())
    sharded_tracing_tour()
    logging_tour()
    print("\ndone")


if __name__ == "__main__":
    main()
