"""The service's request is the planned statement, end to end.

Requests coalesce by the planner's one grouping rule, a rank statement is
cached under itself like any other, and a response carries the revision its
answer was computed at, even when the store moves while the group runs.
"""

import asyncio

import pytest

from repro.engine import QueryEngine
from repro.query_language import PlannedStatement, execute_query_naive
from repro.service import QueryService
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import UncertainTrajectory
from repro.workloads.scenarios import multi_query_fleet


@pytest.fixture
def fleet():
    return multi_query_fleet(num_vehicles=24, num_queries=4)


def run(coro):
    return asyncio.run(coro)


def test_uq31_and_uq32_over_one_window_ride_one_batch(fleet):
    mod, query_ids = fleet
    lo, hi = mod.common_time_span()

    async def serve():
        async with QueryService(mod) as service:
            responses = await service.submit_all([
                PlannedStatement(query_ids[0], lo, hi),
                PlannedStatement(query_ids[1], lo, hi, variant="always"),
            ])
            return responses, service.stats()

    responses, stats = run(serve())
    assert [response.batch_size for response in responses] == [2, 2]
    assert (stats.batches, stats.evaluated) == (1, 2)
    engine = QueryEngine(mod)
    assert responses[0].answer == engine.answer(query_ids[0], lo, hi)
    assert responses[1].answer == engine.answer(query_ids[1], lo, hi, "always")


def test_a_rank_statement_is_cached_under_the_statement(fleet):
    mod, query_ids = fleet
    lo, hi = mod.common_time_span()
    statement = PlannedStatement(query_ids[0], lo, hi, rank=2)

    async def serve():
        async with QueryService(mod) as service:
            first = await service.submit(statement)
            again = await service.submit(PlannedStatement(query_ids[0], lo, hi, rank=2))
            return first, again, service.cache.get(statement, first.revision)

    first, again, cached = run(serve())
    assert not first.from_cache and again.from_cache
    assert cached == first.answer == again.answer
    text = (
        f"SELECT T FROM MOD WHERE EXISTS TIME IN [{lo!r}, {hi!r}] "
        f"AND RANK_NN(T, '{query_ids[0]}', TIME) <= 2"
    )
    assert sorted(first.answer, key=str) == execute_query_naive(text, mod).object_ids


@pytest.mark.parametrize("path", ["submit", "explain"])
def test_a_response_carries_the_revision_it_was_answered_at(fleet, path):
    mod, query_ids = fleet
    lo, hi = mod.common_time_span()
    query_id = query_ids[0]
    member = next(
        oid for oid in QueryEngine(mod).answer(query_id, lo, hi) if oid not in query_ids
    )
    stores = {mod.revision: list(mod)}
    moved = UncertainTrajectory(
        member, [(9e3, 9e3, lo), (9.1e3, 9.1e3, hi)], mod.get(member).radius
    )

    async def serve():
        async with QueryService(mod) as service:
            execute = service.pool.execute

            def racing_execute(statements):
                # A writer on another thread lands after the service took
                # the group, before the engine syncs to the store.
                mod.replace_trajectory(moved)
                stores[mod.revision] = list(mod)
                return execute(statements)

            service.pool.execute = racing_execute
            statement = PlannedStatement(query_id, lo, hi)
            if path == "submit":
                return await service.submit(statement), service
            return (await service.explain(statement)).response, service

    response, service = run(serve())
    expected = QueryEngine(MovingObjectsDatabase(stores[response.revision])).answer(
        query_id, lo, hi
    )
    assert response.answer == expected
    assert response.revision == mod.revision
    assert member not in response.answer
    assert service.cache.get(response.request, mod.revision) == expected


def test_a_member_removed_after_its_submit_check_fails_alone(fleet):
    """Two variants over one window ride one group; one query id leaves the
    store after its ``submit``-time check, before the engine syncs."""
    mod, query_ids = fleet
    lo, hi = mod.common_time_span()
    kept, removed = query_ids[0], query_ids[1]

    async def serve():
        async with QueryService(mod) as service:
            execute = service.pool.execute

            def racing_execute(plan):
                if removed in mod:
                    mod.remove(removed)
                return execute(plan)

            service.pool.execute = racing_execute
            outcomes = await asyncio.gather(
                service.submit(PlannedStatement(kept, lo, hi, variant="always")),
                service.submit(PlannedStatement(removed, lo, hi)),
                return_exceptions=True,
            )
            return outcomes, service.stats()

    (served, failed), stats = run(serve())
    assert isinstance(failed, KeyError)
    assert removed not in mod
    assert served.revision == mod.revision
    text = (
        f"SELECT T FROM MOD WHERE FORALL TIME IN [{lo!r}, {hi!r}] "
        f"AND PROBABILITY_NN(T, '{kept}', TIME) > 0"
    )
    assert sorted(served.answer, key=str) == execute_query_naive(text, mod).object_ids
    assert served.answer == QueryEngine(mod).answer(kept, lo, hi, "always")
    assert (stats.batches, stats.evaluated) == (1, 1)
