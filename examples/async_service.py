"""The async query service: request/response serving plus live push.

Walks the front door of the serving stack end to end:

1. build a city fleet and start a :class:`repro.service.QueryService` over
   it — bounded admission queue, request coalescing, revision-keyed result
   cache, warm engine pool;
2. fire a burst of concurrent UQ31/32/33 requests and watch them coalesce
   into shared engine batches, then ask a rank (UQ41) statement;
3. re-fire the burst to see the result cache absorb it, then mutate the
   store to see the revision key invalidate exactly the stale answers;
4. fire a few dashboard refresh bursts over a sliding window and read the
   serving counters back through ``service.stats()``;
5. bridge a :class:`repro.streaming.ContinuousMonitor` into an async
   subscription and consume live answer deltas.

Run with::

    python examples/async_service.py
"""

from __future__ import annotations

import asyncio

from _support import scaled
from repro.query_language import PlannedStatement
from repro.service import QueryService
from repro.streaming import ContinuousMonitor
from repro.workloads.scenarios import multi_query_fleet, streaming_fleet


async def request_response_tour() -> None:
    mod, query_ids = multi_query_fleet(
        num_vehicles=scaled(60, 20), num_queries=scaled(12, 6)
    )
    lo, hi = mod.common_time_span()
    print(f"fleet of {len(mod)} vehicles, window {lo:.0f}-{hi:.0f} min")

    async with QueryService(mod, queue_limit=128) as service:
        # One concurrent burst: every monitored vehicle's UQ31 plus a UQ32
        # and a UQ33 — same window, so the dispatcher coalesces them.
        requests = [PlannedStatement(query_id, lo, hi) for query_id in query_ids]
        requests.append(PlannedStatement(query_ids[0], lo, hi, variant="always"))
        requests.append(
            PlannedStatement(query_ids[1], lo, hi, variant="fraction", fraction=0.5)
        )
        responses = await service.submit_all(requests)
        print("\n--- burst of concurrent requests ---")
        for response in responses[:4]:
            print(
                f"  {response.request.query_id} {response.request.variant:9s}"
                f" -> {len(response.answer)} neighbors"
                f"   backend={response.backend} batch={response.batch_size}"
            )
        print(f"  ... {len(responses)} responses total")

        # Any planned statement is a request: here a UQ41 rank statement.
        ranked = await service.submit(PlannedStatement(query_ids[0], lo, hi, rank=2))
        print(
            f"  {query_ids[0]} rank<=2  -> {len(ranked.answer)} neighbors"
            f"   backend={ranked.backend} batch={ranked.batch_size}"
        )

        # The identical burst again: pure result-cache traffic.
        again = await service.submit_all(requests)
        hits = sum(1 for response in again if response.from_cache)
        print(f"  repeat burst: {hits}/{len(again)} served from cache")

        # Any store mutation bumps mod.revision, so stale answers silently
        # stop matching the cache key.
        mod.replace_trajectory(mod.get(query_ids[0]))
        fresh = await service.submit(PlannedStatement(query_ids[0], lo, hi))
        print(
            f"  after update: backend={fresh.backend} "
            f"(revision {fresh.revision}; stale entry invalidated)"
        )

        # Dashboard refreshes: a 15-minute window slides forward, and each
        # position is refreshed twice (the second burst is all cache hits).
        service.reset()
        print("\n--- dashboard refresh bursts ---")
        for start in range(int(lo), int(hi) - 15, 15):
            burst = [
                PlannedStatement(query_id, start, start + 15.0) for query_id in query_ids
            ]
            await service.submit_all(burst)
            await service.submit_all(burst)
        stats = service.stats()
        print(
            f"  {stats.submitted} requests: {stats.cache_hits} from cache,"
            f" {stats.evaluated} evaluated in {stats.batches} engine batches"
            f" (coalesce x{stats.coalescing_factor:.1f})"
        )


async def streaming_bridge_tour() -> None:
    # Live push: a monitor ingests scripted position reports while an async
    # consumer iterates the delta subscription.
    scenario = streaming_fleet(
        num_vehicles=scaled(40, 10),
        num_queries=scaled(3, 2),
        num_batches=scaled(4, 2),
    )
    monitor = ContinuousMonitor(scenario.mod)
    print("\n--- streaming subscription bridge ---")
    async with QueryService(scenario.mod) as service:
        service.attach_monitor(monitor)
        subscription = service.subscribe()
        for query_id in scenario.query_ids:
            monitor.register(query_id, sliding=15.0)
        for object_id in scenario.mod.object_ids:
            monitor.track(
                object_id,
                max_speed=scenario.max_speed,
                minimum_radius=scenario.uncertainty_radius,
            )

        async def consume() -> int:
            seen = 0
            async for delta in subscription:
                seen += 1
            return seen

        consumer = asyncio.create_task(consume())
        for batch in scenario.batches:
            for object_id, reports in batch.items():
                monitor.ingest(object_id, reports)
            report = monitor.apply()
            print(
                f"  batch {report.batch}: {len(report.changed_ids)} vehicles moved,"
                f" {len(report.events)} deltas"
            )
            await asyncio.sleep(0)  # let the bridge fan out
        subscription.close()
        print(f"  consumer received {await consumer} deltas")


def main() -> None:
    asyncio.run(request_response_tour())
    asyncio.run(streaming_bridge_tour())


if __name__ == "__main__":
    main()
