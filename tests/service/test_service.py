"""Oracle, caching, coalescing, and lifecycle tests of the QueryService.

The central claim: a service response is byte-identical to a direct
:meth:`repro.engine.QueryEngine.answer` call at the same store state, for
every variant and store size — the async front end is pure plumbing, never
semantics.
"""

import asyncio

import pytest

from repro.engine import QueryEngine
from repro.query_language import PlannedStatement
from repro.service import QueryService, ServiceClosed
from repro.streaming import reference_answer
from repro.trajectories.mod import MovingObjectsDatabase
from repro.workloads.scenarios import multi_query_fleet, sharded_fleet


@pytest.fixture(scope="module")
def fleet():
    return multi_query_fleet(num_vehicles=24, num_queries=4)


def run(coro):
    return asyncio.run(coro)


class TestOracleEquality:
    @pytest.mark.parametrize(
        "variant,fraction", [("sometime", 0.0), ("always", 0.0), ("fraction", 0.4)]
    )
    def test_single_backend_matches_direct_engine(self, fleet, variant, fraction):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        direct = QueryEngine(mod)
        expected = {
            query_id: direct.answer(
                query_id, lo, hi, variant=variant, fraction=fraction
            )
            for query_id in query_ids
        }

        async def serve():
            async with QueryService(mod) as service:
                return await service.submit_all(
                    [
                        PlannedStatement(
                            query_id, lo, hi, variant=variant, fraction=fraction
                        )
                        for query_id in query_ids
                    ]
                )

        responses = run(serve())
        assert {
            response.request.query_id: response.answer for response in responses
        } == expected

    @pytest.mark.parametrize(
        "variant,fraction", [("sometime", 0.0), ("always", 0.0), ("fraction", 0.4)]
    )
    def test_sharded_fleet_matches_direct_engine(self, variant, fraction):
        mod, query_ids = sharded_fleet(num_districts=4, vehicles_per_district=8)
        lo, hi = mod.common_time_span()
        direct = QueryEngine(mod)
        expected = {
            query_id: direct.answer(
                query_id, lo, hi, variant=variant, fraction=fraction
            )
            for query_id in query_ids
        }

        async def serve():
            async with QueryService(mod) as service:
                responses = await service.submit_all(
                    [
                        PlannedStatement(
                            query_id, lo, hi, variant=variant, fraction=fraction
                        )
                        for query_id in query_ids
                    ]
                )
                assert all(r.backend == "single" for r in responses)
                return responses

        responses = run(serve())
        assert {
            response.request.query_id: response.answer for response in responses
        } == expected

    def test_duplicate_requests_share_one_evaluation(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        request = PlannedStatement(query_ids[0], lo, hi)

        async def serve():
            async with QueryService(mod) as service:
                responses = await service.submit_all([request] * 4)
                return responses, service.stats()

        responses, stats = run(serve())
        assert len({id(r.answer) for r in responses if not r.from_cache}) <= 1
        answers = {tuple(sorted(r.answer, key=str)) for r in responses}
        assert len(answers) == 1
        assert stats.batches == 1


class TestCoalescing:
    def test_concurrent_same_window_requests_ride_one_batch(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()

        async def serve():
            async with QueryService(mod) as service:
                responses = await service.submit_all(
                    [PlannedStatement(query_id, lo, hi) for query_id in query_ids]
                )
                return responses, service.stats()

        responses, stats = run(serve())
        assert stats.batches == 1
        assert all(response.batch_size == len(query_ids) for response in responses)

    def test_distinct_windows_split_into_groups(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        mid = (lo + hi) / 2.0

        async def serve():
            async with QueryService(mod) as service:
                await service.submit_all(
                    [
                        PlannedStatement(query_ids[0], lo, mid),
                        PlannedStatement(query_ids[1], lo, mid),
                        PlannedStatement(query_ids[2], mid, hi),
                    ]
                )
                return service.stats()

        stats = run(serve())
        assert stats.batches == 2
        assert stats.evaluated == 3


class TestResultCache:
    def test_repeat_request_hits_cache(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()

        async def serve():
            async with QueryService(mod) as service:
                first = await service.submit(PlannedStatement(query_ids[0], lo, hi))
                second = await service.submit(PlannedStatement(query_ids[0], lo, hi))
                return first, second

        first, second = run(serve())
        assert not first.from_cache
        assert second.from_cache
        assert second.answer == first.answer

    def test_store_mutation_invalidates_cached_answer(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()

        async def serve():
            async with QueryService(mod) as service:
                first = await service.submit(PlannedStatement(query_ids[0], lo, hi))
                # Same-motion replacement still bumps the revision, so the
                # cached answer must stop being served even though it would
                # have been correct.
                mod.replace_trajectory(mod.get(query_ids[1]))
                second = await service.submit(PlannedStatement(query_ids[0], lo, hi))
                direct = QueryEngine(mod).answer(query_ids[0], lo, hi)
                return first, second, direct

        first, second, direct = run(serve())
        assert not second.from_cache
        assert second.revision > first.revision
        assert second.answer == direct


class TestLifecycleAndErrors:
    def test_submit_before_start_raises(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        service = QueryService(mod)

        async def attempt():
            await service.submit(PlannedStatement(query_ids[0], lo, hi))

        with pytest.raises(ServiceClosed):
            run(attempt())

    def test_submit_after_stop_raises(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()

        async def scenario():
            service = QueryService(mod)
            await service.start()
            await service.stop()
            with pytest.raises(ServiceClosed):
                await service.submit(PlannedStatement(query_ids[0], lo, hi))

        run(scenario())

    def test_unknown_query_id_propagates_keyerror(self, fleet):
        mod, _ = fleet
        lo, hi = mod.common_time_span()

        async def scenario():
            async with QueryService(mod) as service:
                with pytest.raises(KeyError):
                    await service.submit(PlannedStatement("no-such-vehicle", lo, hi))
                # The dispatcher survives the failed group and keeps serving.
                response = await service.submit(PlannedStatement(mod.object_ids[0], lo, hi))
                assert response.answer

        run(scenario())

    def test_backend_options_are_not_accepted(self, fleet):
        mod, _ = fleet
        for option, value in [("shard_threshold", 5), ("force_backend", "single")]:
            with pytest.raises(TypeError, match=option):
                QueryService(mod, **{option: value})

    def test_service_over_an_empty_store_starts_and_serves_upserts(self, fleet):
        source, query_ids = fleet
        mod = MovingObjectsDatabase()

        async def scenario():
            async with QueryService(mod) as service:
                assert len(mod.index()) == 0
                mod.upsert_many(list(source))
                lo, hi = mod.common_time_span()
                responses = await asyncio.gather(
                    *(service.submit(PlannedStatement(query_id, lo, hi)) for query_id in query_ids)
                )
                return lo, hi, responses

        lo, hi, responses = run(scenario())
        for query_id, response in zip(query_ids, responses):
            assert response.answer == reference_answer(mod, query_id, lo, hi)
        # The empty tree was reloaded, not patched: it is a fresh load's twin.
        assert len(mod.index()) == len(mod.build_index())

    def test_stats_report_backend_and_counts(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()

        async def serve():
            async with QueryService(mod) as service:
                await service.submit_all(
                    [PlannedStatement(query_id, lo, hi) for query_id in query_ids]
                )
                await service.submit(PlannedStatement(query_ids[0], lo, hi))
                return service.stats(), service.cache_info()

        stats, cache_info = run(serve())
        assert stats.submitted == len(query_ids) + 1
        assert stats.cache_hits == 1
        assert stats.coalescing_factor == len(query_ids)
        assert cache_info.size == len(query_ids)
