"""The async delta bridge: fan-out, filtering, overflow, and lifecycle."""

import asyncio

import pytest

from repro.query_language import PlannedStatement
from repro.service import QueryService
from repro.streaming import ContinuousMonitor
from repro.streaming.events import NeighborAppeared
from repro.workloads.scenarios import streaming_fleet


def run(coro):
    return asyncio.run(coro)


class FakeMonitor:
    """Minimal stand-in exposing the monitor's subscribe() shape."""

    def __init__(self):
        self.callbacks = []

    def subscribe(self, callback, query_key=None):
        entry = callback
        self.callbacks.append(entry)

        def unsubscribe():
            if entry in self.callbacks:
                self.callbacks.remove(entry)

        return unsubscribe

    def emit(self, event):
        for callback in list(self.callbacks):
            callback(event)


def event(query_key="q0", neighbor="n", batch=1):
    return NeighborAppeared(
        query_key=query_key, query_id="veh", batch=batch, neighbor_id=neighbor
    )


async def drain(subscription, limit=100):
    received = []
    while len(received) < limit:
        try:
            item = await asyncio.wait_for(subscription.get(), timeout=0.2)
        except asyncio.TimeoutError:
            break
        if item is None:
            break
        received.append(item)
    return received


class TestBridge:
    def test_events_fan_out_to_every_subscriber(self):
        async def scenario():
            monitor = FakeMonitor()
            mod = streaming_fleet(num_vehicles=4, num_queries=1).mod
            async with QueryService(mod) as service:
                service.attach_monitor(monitor)
                first = service.subscribe()
                second = service.subscribe()
                monitor.emit(event(neighbor="a"))
                monitor.emit(event(neighbor="b"))
                await asyncio.sleep(0)
                return await drain(first), await drain(second)

        got_first, got_second = run(scenario())
        assert [e.neighbor_id for e in got_first] == ["a", "b"]
        assert [e.neighbor_id for e in got_second] == ["a", "b"]

    def test_query_key_filtering(self):
        async def scenario():
            monitor = FakeMonitor()
            mod = streaming_fleet(num_vehicles=4, num_queries=1).mod
            async with QueryService(mod) as service:
                service.attach_monitor(monitor)
                only_q1 = service.subscribe(query_key="q1")
                monitor.emit(event(query_key="q0", neighbor="skip"))
                monitor.emit(event(query_key="q1", neighbor="take"))
                await asyncio.sleep(0)
                return await drain(only_q1)

        received = run(scenario())
        assert [e.neighbor_id for e in received] == ["take"]

    def test_overflow_drops_oldest_and_counts(self):
        async def scenario():
            monitor = FakeMonitor()
            mod = streaming_fleet(num_vehicles=4, num_queries=1).mod
            async with QueryService(mod) as service:
                service.attach_monitor(monitor)
                subscription = service.subscribe(buffer=2)
                for index in range(5):
                    monitor.emit(event(neighbor=f"n{index}"))
                await asyncio.sleep(0)
                received = await drain(subscription)
                return received, subscription.dropped

        received, dropped = run(scenario())
        assert [e.neighbor_id for e in received] == ["n3", "n4"]
        assert dropped == 3

    def test_close_ends_iteration(self):
        async def scenario():
            monitor = FakeMonitor()
            mod = streaming_fleet(num_vehicles=4, num_queries=1).mod
            async with QueryService(mod) as service:
                service.attach_monitor(monitor)
                subscription = service.subscribe()
                monitor.emit(event(neighbor="a"))
                await asyncio.sleep(0)
                subscription.close()
                collected = [delta async for delta in subscription]
                assert await subscription.get() is None
                return collected

        collected = run(scenario())
        assert [e.neighbor_id for e in collected] == ["a"]

    def test_attach_requires_running_service(self):
        from repro.service import ServiceClosed

        mod = streaming_fleet(num_vehicles=4, num_queries=1).mod
        service = QueryService(mod)
        with pytest.raises(ServiceClosed):
            service.attach_monitor(FakeMonitor())
        with pytest.raises(ServiceClosed):
            service.subscribe()


class TestRealMonitorIntegration:
    def test_live_monitor_deltas_reach_async_consumer(self):
        scenario_data = streaming_fleet(
            num_vehicles=10, num_queries=2, num_batches=2
        )

        async def scenario():
            monitor = ContinuousMonitor(scenario_data.mod)
            synchronous = []
            monitor.subscribe(synchronous.append)
            async with QueryService(scenario_data.mod) as service:
                service.attach_monitor(monitor)
                subscription = service.subscribe()
                registered = monitor.register(
                    scenario_data.query_ids[0], sliding=10.0
                )
                for object_id in scenario_data.mod.object_ids:
                    monitor.track(
                        object_id,
                        max_speed=scenario_data.max_speed,
                        minimum_radius=scenario_data.uncertainty_radius,
                    )
                for batch in scenario_data.batches:
                    for object_id, reports in batch.items():
                        monitor.ingest(object_id, reports)
                    monitor.apply()
                await asyncio.sleep(0)
                received = await drain(subscription)
                return registered.key, synchronous, received

        key, synchronous, received = run(scenario())
        # Every delta a synchronous subscriber saw (registration included)
        # must reach the async consumer, in order and tagged with the key.
        assert received == synchronous
        assert len(received) > 0
        assert all(delta.query_key == key for delta in received)

    def test_monitor_updates_invalidate_service_cache(self):
        scenario_data = streaming_fleet(
            num_vehicles=10, num_queries=2, num_batches=1
        )

        async def scenario():
            mod = scenario_data.mod
            monitor = ContinuousMonitor(mod)
            lo, hi = mod.common_time_span()
            async with QueryService(mod) as service:
                first = await service.submit(PlannedStatement(scenario_data.query_ids[0], lo, hi))
                for object_id in mod.object_ids:
                    monitor.track(
                        object_id,
                        max_speed=scenario_data.max_speed,
                        minimum_radius=scenario_data.uncertainty_radius,
                    )
                for object_id, reports in scenario_data.batches[0].items():
                    monitor.ingest(object_id, reports)
                monitor.apply()
                second = await service.submit(PlannedStatement(
                    scenario_data.query_ids[0], lo, hi
                ))
                return first, second

        first, second = run(scenario())
        assert not first.from_cache
        # The ingested batch advanced the MOD revision, so the service must
        # recompute rather than serve the stale cached answer.
        assert not second.from_cache
        assert second.revision > first.revision
