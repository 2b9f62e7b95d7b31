"""Bounded-queue admission: backpressure, rejection, and drain-on-stop."""

import asyncio

import pytest

from repro.query_language import PlannedStatement
from repro.service import QueryService, ServiceOverloaded
from repro.workloads.scenarios import multi_query_fleet


@pytest.fixture(scope="module")
def fleet():
    return multi_query_fleet(num_vehicles=20, num_queries=8)


def run(coro):
    return asyncio.run(coro)


class TestRejectPolicy:
    def test_overflow_rejects_fast(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()

        async def scenario():
            async with QueryService(
                mod, queue_limit=4, admission="reject"
            ) as service:
                results = await asyncio.gather(
                    *(
                        service.submit(PlannedStatement(query_id, lo, hi))
                        for query_id in query_ids
                    ),
                    return_exceptions=True,
                )
                return results, service.stats()

        results, stats = run(scenario())
        served = [r for r in results if not isinstance(r, BaseException)]
        rejected = [r for r in results if isinstance(r, ServiceOverloaded)]
        # All eight submissions land before the dispatcher gets scheduled:
        # exactly queue_limit are admitted, the rest fail fast.
        assert len(served) == 4
        assert len(rejected) == 4
        assert stats.rejected == 4
        assert all(
            not isinstance(r, BaseException) or isinstance(r, ServiceOverloaded)
            for r in results
        )

    def test_rejected_request_can_be_resubmitted(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()

        async def scenario():
            async with QueryService(
                mod, queue_limit=1, admission="reject"
            ) as service:
                results = await asyncio.gather(
                    *(
                        service.submit(PlannedStatement(query_id, lo, hi))
                        for query_id in query_ids[:3]
                    ),
                    return_exceptions=True,
                )
                retry_id = next(
                    request.query_id
                    for request, outcome in zip(
                        [PlannedStatement(q, lo, hi) for q in query_ids[:3]], results
                    )
                    if isinstance(outcome, ServiceOverloaded)
                )
                response = await service.submit(PlannedStatement(retry_id, lo, hi))
                return response

        response = run(scenario())
        assert response.answer is not None


class TestWaitPolicy:
    def test_backpressure_serves_everything(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()

        async def scenario():
            async with QueryService(
                mod, queue_limit=2, admission="wait"
            ) as service:
                responses = await service.submit_all(
                    [PlannedStatement(query_id, lo, hi) for query_id in query_ids]
                )
                return responses, service.stats()

        responses, stats = run(scenario())
        assert len(responses) == len(query_ids)
        assert stats.rejected == 0
        assert stats.evaluated == len(query_ids)
        # The tiny queue forces several dispatcher rounds instead of one.
        assert stats.batches >= 2

    def test_queue_depth_is_bounded(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()

        async def scenario():
            async with QueryService(
                mod, queue_limit=2, admission="wait"
            ) as service:
                await service.submit_all(
                    [PlannedStatement(query_id, lo, hi) for query_id in query_ids]
                )
                return service.stats()

        stats = run(scenario())
        assert stats.max_queue_depth <= 2


class TestDrainOnStop:
    def test_stop_serves_already_admitted_requests(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()

        async def scenario():
            service = QueryService(mod)
            await service.start()
            pending = [
                asyncio.create_task(
                    service.submit(PlannedStatement(query_id, lo, hi))
                )
                for query_id in query_ids[:3]
            ]
            await asyncio.sleep(0)  # let the submissions enqueue
            await service.stop()
            return await asyncio.gather(*pending, return_exceptions=True)

        results = run(scenario())
        assert all(not isinstance(result, BaseException) for result in results)
