"""A context memoizes the answers it serves and hands out copies.

:meth:`QueryContext.answer` (UQ3x) and :meth:`QueryContext.rank_answer`
(UQ4x) compute an answer once per context; ``answer_of`` and
``QueryEngine.rank_answer`` return a fresh container per call, so a caller
that mutates its answer never changes the next one.  Every memoized answer
is ``==`` the one a fresh ``QueryContext.from_mod`` over the engine's
candidates gives.
"""

import threading

import pytest

from repro.core.queries import QueryContext
from repro.engine import QueryEngine, answer_of
from repro.trajectories.trajectory import UncertainTrajectory
from repro.workloads.scenarios import multi_query_fleet

UQ3X = [("sometime", 0.0), ("always", 0.0), ("fraction", 0.3)]
UQ4X = [(1, "sometime", 0.0), (2, "always", 0.0), (3, "fraction", 0.4)]


@pytest.fixture
def world():
    mod, query_ids = multi_query_fleet(num_vehicles=40, num_queries=4, seed=11)
    lo, hi = mod.common_time_span()
    return mod, query_ids, lo, hi


def fresh(engine, query_id, lo, hi):
    """A context built from scratch over the engine's corridor candidates."""
    return QueryContext.from_mod(
        engine.mod, query_id, lo, hi, candidate_ids=engine.candidate_ids(query_id, lo, hi)
    )


class TestFreshContainers:
    def test_repeated_calls_are_equal_but_distinct(self, world):
        mod, query_ids, lo, hi = world
        engine = QueryEngine(mod)
        context = engine.prepare(query_ids[0], lo, hi).context
        for variant, fraction in UQ3X:
            first = answer_of(context, variant, fraction)
            second = answer_of(context, variant, fraction)
            assert first == second and first is not second
            assert first == answer_of(fresh(engine, query_ids[0], lo, hi), variant, fraction)
        for rank, variant, fraction in UQ4X:
            first = engine.rank_answer(context, rank, variant, fraction)
            second = engine.rank_answer(context, rank, variant, fraction)
            assert first == second and first is not second
            assert first == engine.rank_answer(
                fresh(engine, query_ids[0], lo, hi), rank, variant, fraction
            )

    def test_mutating_an_answer_leaves_the_next_one_alone(self, world):
        mod, query_ids, lo, hi = world
        engine = QueryEngine(mod)
        context = engine.prepare(query_ids[0], lo, hi).context
        answer = answer_of(context, "sometime")
        expected = dict(answer)
        assert answer
        answer.clear()
        answer["intruder"] = ((lo, hi),)
        assert answer_of(context, "sometime") == expected
        members = engine.rank_answer(context, 2, "sometime")
        kept = list(members)
        members.append("intruder")
        assert engine.rank_answer(context, 2, "sometime") == kept

    def test_a_deeper_level_stack_recomputes_rank_answers(self, world):
        mod, query_ids, lo, hi = world
        context = fresh(QueryEngine(mod), query_ids[0], lo, hi)
        shallow = context.rank_answer(1, "always")
        context.level_envelopes(4)
        assert context.rank_answer(1, "always") is not shallow
        assert context.rank_answer(1, "always") == shallow


def test_two_threads_answering_one_context_agree(world):
    mod, query_ids, lo, hi = world
    engine = QueryEngine(mod)
    context = fresh(engine, query_ids[1], lo, hi)
    expected = {
        **{key: answer_of(fresh(engine, query_ids[1], lo, hi), *key) for key in UQ3X},
        **{key: engine.rank_answer(fresh(engine, query_ids[1], lo, hi), *key) for key in UQ4X},
    }
    barrier = threading.Barrier(2)
    results = [None, None]

    def answer_all(slot):
        barrier.wait()
        results[slot] = {
            **{key: answer_of(context, *key) for key in UQ3X},
            **{key: engine.rank_answer(context, *key) for key in UQ4X},
        }

    threads = [threading.Thread(target=answer_all, args=(slot,)) for slot in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results[0] == results[1] == expected


def test_an_answer_kept_across_a_write_equals_a_fresh_context(world):
    mod, query_ids, lo, hi = world
    engine = QueryEngine(mod)
    before = {
        query_id: engine.prepare(query_id, lo, hi).context for query_id in query_ids
    }
    for query_id, context in before.items():
        answer_of(context, "fraction", 0.3)  # memoized before the write
        engine.rank_answer(context, 2, "sometime")
    mod.add(UncertainTrajectory("far", [(9e3, 9e3, lo), (9.1e3, 9.1e3, hi)], 0.3))
    for query_id in query_ids:
        prepared = engine.prepare(query_id, lo, hi)
        assert prepared.from_cache and prepared.context is before[query_id]
        rebuilt = fresh(engine, query_id, lo, hi)
        assert answer_of(prepared.context, "fraction", 0.3) == answer_of(rebuilt, "fraction", 0.3)
        assert engine.rank_answer(prepared.context, 2, "sometime") == engine.rank_answer(
            rebuilt, 2, "sometime"
        )
