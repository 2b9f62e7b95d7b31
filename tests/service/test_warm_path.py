"""Warm groups are answered on the event loop; every other group off it.

A coalesced group whose contexts are all cached at the store's revision is
a linear read, so the service evaluates it on the loop thread instead of
paying an executor round trip.  These tests pin what that must not change:
the answers, the executor path for groups that refresh or build, the span
roots, the caches the warm check reads, and the order in which submitters
resume.
"""

import asyncio

import pytest

from repro.engine import QueryEngine
from repro.obs.tracing import capture, current_span, trace_span
from repro.query_language import PlannedStatement
from repro.service import QueryRequest, QueryService
from repro.service.pool import EnginePool
from repro.trajectories.trajectory import UncertainTrajectory
from repro.workloads.scenarios import multi_query_fleet


@pytest.fixture
def fleet():
    return multi_query_fleet(num_vehicles=24, num_queries=4)


def run(coro):
    return asyncio.run(coro)


def far_away(object_id, lo, hi):
    return UncertainTrajectory(object_id, [(9e3, 9e3, lo), (9.1e3, 9.1e3, hi)], 0.3)


def requests_for(query_ids, lo, hi, variant="sometime", fraction=0.0):
    return [
        QueryRequest(query_id, lo, hi, variant=variant, fraction=fraction)
        for query_id in query_ids
    ]


def spy_on_executor(loop):
    """Count the loop's ``run_in_executor`` calls from now on."""
    calls = []
    original = loop.run_in_executor

    def counting(executor, func, *args):
        calls.append(func)
        return original(executor, func, *args)

    loop.run_in_executor = counting
    return calls


class TestWarmGroupsStayOnTheLoop:
    def test_a_warm_burst_makes_no_executor_call_and_a_write_makes_one(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()

        async def serve():
            async with QueryService(mod) as service:
                await service.submit_all(requests_for(query_ids, lo, hi))
                calls = spy_on_executor(asyncio.get_running_loop())
                # Same contexts, a new variant: result-cache misses, all warm.
                warm = await service.submit_all(
                    requests_for(query_ids, lo, hi, variant="always")
                )
                warm_calls = len(calls)
                warm_expected = {
                    q: QueryEngine(mod).answer(q, lo, hi, variant="always")
                    for q in query_ids
                }
                mod.add(far_away("far", lo, hi))
                after_write = await service.submit_all(
                    requests_for(query_ids, lo, hi, variant="fraction", fraction=0.4)
                )
                write_calls = len(calls) - warm_calls
                # The refresh is paid; the next group at this revision is warm.
                again = await service.submit_all(requests_for(query_ids, lo, hi))
                inline = service.metrics_snapshot()[
                    "repro_service_inline_batches_total"
                ]
                return (
                    warm, warm_calls, warm_expected, after_write, write_calls,
                    again, len(calls) - warm_calls - write_calls, inline,
                )

        (warm, warm_calls, warm_expected, after_write, write_calls,
         again, again_calls, inline) = run(serve())
        assert warm_calls == 0
        assert write_calls == 1
        assert again_calls == 0
        assert {r.request.query_id: r.answer for r in warm} == warm_expected
        fresh = QueryEngine(mod)
        assert {r.request.query_id: r.answer for r in after_write} == {
            q: fresh.answer(q, lo, hi, variant="fraction", fraction=0.4)
            for q in query_ids
        }
        assert {r.request.query_id: r.answer for r in again} == {
            q: fresh.answer(q, lo, hi) for q in query_ids
        }
        assert all(r.revision == mod.revision for r in after_write + again)
        assert all(r.revision == mod.revision - 1 for r in warm)
        assert inline["value"] == 2

    def test_service_group_stays_a_root_under_a_span_the_caller_holds(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        request = QueryRequest(query_ids[0], lo, hi, variant="always")

        async def serve():
            async with QueryService(mod) as service:
                # Warms the context, so the traced request is served inline.
                await service.submit(QueryRequest(query_ids[0], lo, hi))
                with capture() as recorder:
                    with trace_span("caller") as outer:
                        await service.submit(request)
                        still_open = current_span()
                return outer, still_open, recorder.spans()

        outer, still_open, roots = run(serve())
        assert still_open is outer
        assert outer.find("service.group") is None
        groups = [root for root in roots if root.name == "service.group"]
        assert len(groups) == 1
        assert groups[0].find("pool.answer_group") is not None

    def test_submitters_of_one_group_resume_before_the_next_group_runs(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        mid = (lo + hi) / 2
        resumed = []

        async def serve():
            async with QueryService(mod) as service:
                # Two warm windows, submitted together: one drained batch,
                # two groups, each evaluated under its own root span.
                await service.submit_all(
                    requests_for(query_ids, lo, hi) + requests_for(query_ids, lo, mid)
                )
                with capture() as recorder:

                    async def submit(statement):
                        response = await service.submit(statement)
                        groups = [r for r in recorder.spans() if r.name == "service.group"]
                        resumed.append((statement.t_end, len(groups), response.batch_size))

                    await asyncio.gather(
                        submit(PlannedStatement(query_ids[0], lo, hi, variant="always")),
                        submit(
                            PlannedStatement(
                                query_ids[1], lo, mid, variant="fraction", fraction=0.4
                            )
                        ),
                    )
                return service.metrics_snapshot()["repro_service_inline_batches_total"]

        inline = run(serve())
        # Each submitter resumes with only its own group (and those before
        # it) evaluated: the second group has not run yet.
        assert resumed == [(hi, 1, 1), (mid, 2, 1)]
        assert inline["value"] == 2  # both groups were answered on the loop


class TestTheWarmCheck:
    def test_it_moves_neither_the_lru_order_nor_the_counters(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        with EnginePool(mod) as pool:
            assert not pool.warm(query_ids, lo, hi)  # no engine yet
            engine = pool.single_engine()
            assert not pool.warm(query_ids, lo, hi)
            for query_id in query_ids:
                engine.prepare(query_id, lo, hi)
            info = engine.cache_info()
            order = [key for key, _ in engine._cache.items()]
            assert pool.warm(list(reversed(query_ids)), lo, hi)
            assert pool.warm(query_ids[:1], lo, hi)
            assert engine.cache_info() == info
            assert [key for key, _ in engine._cache.items()] == order

    def test_a_pending_refresh_or_a_missing_context_is_not_warm(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        engine = QueryEngine(mod)
        engine.prepare_batch(query_ids[:2], lo, hi)
        assert engine.warm(query_ids[:2], lo, hi)
        assert not engine.warm(query_ids, lo, hi)
        assert not engine.warm(query_ids[:2], lo, (lo + hi) / 2)
        width = mod.default_band_width(query_ids[0])
        assert engine.warm(query_ids[:1], lo, hi, band_width=width)
        assert not engine.warm(query_ids[:1], lo, hi, band_width=2 * width)
        mod.add(far_away("far", lo, hi))
        assert not engine.warm(query_ids[:2], lo, hi)  # refresh due
        engine.refresh()
        assert engine.warm(query_ids[:2], lo, hi)  # the far insert kept them

    def test_an_unknown_id_is_not_warm_and_still_fails_alone(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()

        async def serve():
            async with QueryService(mod) as service:
                await service.submit_all(requests_for(query_ids, lo, hi))
                warm_with_unknown = service.pool.warm(["nope", *query_ids], lo, hi)
                outcomes = await asyncio.gather(
                    service.submit(QueryRequest("nope", lo, hi, variant="always")),
                    *(service.submit(r) for r in requests_for(query_ids, lo, hi, "fraction", 0.4)),
                    return_exceptions=True,
                )
                return warm_with_unknown, outcomes

        warm_with_unknown, (unknown, *served) = run(serve())
        assert warm_with_unknown is False
        assert isinstance(unknown, KeyError)
        engine = QueryEngine(mod)
        assert {r.request.query_id: r.answer for r in served} == {
            q: engine.answer(q, lo, hi, variant="fraction", fraction=0.4)
            for q in query_ids
        }


def test_a_cache_hit_carries_the_revision_it_was_looked_up_at(fleet):
    mod, query_ids = fleet
    lo, hi = mod.common_time_span()
    request = QueryRequest(query_ids[0], lo, hi)

    async def serve():
        async with QueryService(mod) as service:
            await service.submit(request)
            get = service.cache.get
            looked_up = []

            def racing_get(fingerprint, revision):
                found = get(fingerprint, revision)
                looked_up.append(revision)
                mod.add(far_away(f"far-{revision}", lo, hi))
                return found

            service.cache.get = racing_get
            return await service.submit(request), looked_up

    response, looked_up = run(serve())
    assert response.from_cache
    assert looked_up == [response.revision]
    assert mod.revision == response.revision + 1
