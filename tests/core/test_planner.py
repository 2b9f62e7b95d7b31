"""Tests for the query-language planner: fusion, execution, explain."""

import gc
import importlib.util
import inspect
import weakref

import pytest

import repro.core
from repro.obs.metrics import MetricsRegistry
import repro.query_language as query_language
from repro.core.queries import QueryContext
from repro.query_language import (
    PlannedStatement,
    QueryExecutor,
    compile_queries,
    execute_query_naive,
    parse_query,
    plan_statements,
)
from repro.trajectories.mod import MovingObjectsDatabase
from repro.workloads.scenarios import multi_query_fleet

from ..conftest import straight_trajectory
from .test_planner_oracle import _statements


@pytest.fixture
def mod() -> MovingObjectsDatabase:
    return MovingObjectsDatabase(
        [
            straight_trajectory("q", (0.0, 0.0), (30.0, 0.0)),
            straight_trajectory("near", (0.0, 2.0), (30.0, 2.0)),
            straight_trajectory("crossing", (15.0, -20.0), (15.0, 20.0)),
            straight_trajectory("far", (0.0, 30.0), (30.0, 30.0)),
        ]
    )


def _text(query: str, t_start: float = 0.0, t_end: float = 60.0) -> str:
    return (
        f"SELECT T FROM MOD WHERE EXISTS TIME IN [{t_start}, {t_end}] "
        f"AND PROBABILITY_NN(T, '{query}', TIME) > 0"
    )


class TestFusion:
    def test_shared_window_statements_fuse_into_one_group(self, mod):
        asts = [parse_query(_text("q")), parse_query(_text("near"))]
        plan = compile_queries(asts, mod)
        assert len(plan.groups) == 1
        assert plan.groups[0].width == 2
        assert plan.statement_count == 2

    def test_distinct_windows_stay_separate(self, mod):
        asts = [
            parse_query(_text("q")),
            parse_query(_text("q", t_end=30.0)),
        ]
        plan = compile_queries(asts, mod)
        assert len(plan.groups) == 2
        assert [group.width for group in plan.groups] == [1, 1]

    def test_band_width_override_splits_groups(self, mod):
        asts = [parse_query(_text("q")) for _ in range(3)]
        plan = compile_queries(asts, mod, band_width=[1.0, 1.0, None])
        widths = sorted(group.width for group in plan.groups)
        assert widths == [1, 2]
        by_band = {group.band_width: group.width for group in plan.groups}
        assert by_band == {1.0: 2, None: 1}

    def test_scalar_band_width_fuses_everything(self, mod):
        asts = [parse_query(_text("q")), parse_query(_text("near"))]
        plan = compile_queries(asts, mod, band_width=2.0)
        assert len(plan.groups) == 1
        assert plan.groups[0].band_width == 2.0

    def test_band_width_sequence_must_match_statement_count(self, mod):
        asts = [parse_query(_text("q"))]
        with pytest.raises(ValueError):
            compile_queries(asts, mod, band_width=[1.0, 2.0])


class TestOnePlanShape:
    def test_statements_need_no_ast(self, mod):
        from repro.engine import QueryEngine

        plan = plan_statements([
            PlannedStatement("q", 0.0, 60.0),
            PlannedStatement("near", 0.0, 60.0, variant="always"),
            PlannedStatement("q", 0.0, 30.0, rank=2, target="near"),
            PlannedStatement("q", 0.0, 60.0, band_width=2.0),
            PlannedStatement("q", 0.0, 60.0, variant="fraction", fraction=0.5),
        ])
        assert [
            (group.t_start, group.t_end, group.band_width, group.positions)
            for group in plan.groups
        ] == [(0.0, 60.0, None, (0, 1, 4)), (0.0, 30.0, None, (2,)), (0.0, 60.0, 2.0, (3,))]
        assert plan.statements[2].category == 2 and plan.statements[2].ast is None
        engine = QueryEngine(mod)
        execution = plan.execute(engine)
        assert execution.contexts[0] is execution.contexts[4]
        direct = QueryEngine(mod)
        assert execution.answers == [
            direct.answer("q", 0.0, 60.0),
            direct.answer("near", 0.0, 60.0, variant="always"),
            [
                member for member in direct.rank_answer(
                    direct.prepare("q", 0.0, 30.0).context, 2, "sometime"
                )
                if member == "near"
            ],
            direct.answer("q", 0.0, 60.0, band_width=2.0),
            direct.answer("q", 0.0, 60.0, variant="fraction", fraction=0.5),
        ]

    def test_the_node_tree_is_gone(self, mod):
        for name in (
            "PlanNode", "MergeNode", "PrepareNode", "BandIntervalsNode",
            "AnswerNode", "render_plan",
        ):
            assert not hasattr(query_language, name)
        assert importlib.util.find_spec("repro.query_language.plans") is None
        plan = compile_queries([parse_query(_text("q"))], mod)
        assert not hasattr(plan, "root")


class TestOneCandidateFilter:
    def test_small_store_filters_through_the_store_rtree(self):
        # Three objects and under 64 segments: every store takes the box table.
        mod = MovingObjectsDatabase(
            [
                straight_trajectory("q", (0.0, 0.0), (30.0, 0.0)),
                straight_trajectory("near", (0.0, 2.0), (30.0, 2.0)),
                straight_trajectory("crossing", (15.0, -20.0), (15.0, 20.0)),
            ]
        )
        assert sum(len(trajectory.samples) - 1 for trajectory in mod) < 64
        executor = QueryExecutor(mod)
        assert executor.engine.index is mod.index()
        texts = _statements(mod.object_ids, 0.0, 60.0)
        assert len(texts) == 8
        results = executor.execute_many(texts)
        assert [result.object_ids for result in results] == [
            execute_query_naive(text, mod).object_ids for text in texts
        ]

    def test_executor_over_an_empty_store_serves_after_adds(self, mod):
        empty = MovingObjectsDatabase()
        executor = QueryExecutor(empty)
        assert len(executor.engine.index) == 0
        empty.add_all(list(mod))
        texts = _statements(empty.object_ids, 0.0, 60.0)
        assert [result.object_ids for result in executor.execute_many(texts)] == [
            execute_query_naive(text, empty).object_ids for text in texts
        ]
        assert executor.engine.index is empty.index()

    def test_removed_options_are_not_accepted(self, mod):
        statement = parse_query(_text("q"))
        with pytest.raises(TypeError, match="sharded_available"):
            compile_queries([statement], mod, sharded_available=True)
        with pytest.raises(TypeError, match="sharded"):
            QueryExecutor(mod, sharded=object())
        for option, value in [("cost_model", None), ("stats", None), ("access", None)]:
            with pytest.raises(TypeError, match=option):
                compile_queries([statement], mod, **{option: value})
        with pytest.raises(TypeError, match="cost_model"):
            QueryExecutor(mod, cost_model=None)
        with pytest.raises(TypeError, match="index"):
            QueryContext.from_mod(mod, "q", 0.0, 60.0, index=mod.index())
        for name in (
            "CostModel", "StoreStats", "AccessDecision", "DEFAULT_COST_MODEL",
            "CorridorFilterNode",
        ):
            assert not hasattr(query_language, name)
        plan = compile_queries([statement], mod)
        for name in ("stats", "access", "cost_model"):
            assert not hasattr(plan, name)
        executor = QueryExecutor(mod)
        for name in ("stats", "access"):
            assert not hasattr(executor, name)


GOLDEN_EXPLAIN = (
    "Merge                 [statements=6 groups=3]\n"
    "  Prepare               [window=[0, 60] statements=3]\n"
    "    BandIntervals         [band=default(4r) contexts=2]\n"
    "      Answer                [query=q variant=sometime category=3]\n"
    "      Answer                [query=near rank=2 variant=always category=4]\n"
    "      Answer                [query=q variant=fraction fraction=0.25 target=crossing category=1]\n"
    "  Prepare               [window=[0, 30] statements=2]\n"
    "    BandIntervals         [band=2.5 contexts=2]\n"
    "      Answer                [query=q variant=sometime category=3]\n"
    "      Answer                [query=far rank=3 variant=fraction fraction=0.5 target=near category=2]\n"
    "  Prepare               [window=[0, 30] statements=1]\n"
    "    BandIntervals         [band=default(4r) contexts=1]\n"
    "      Answer                [query=near variant=sometime category=3]"
)


class TestExplain:
    def test_plan_tree_renders_every_stage(self, mod):
        rendered = QueryExecutor(mod).explain([_text("q"), _text("near")])
        for label in ("Merge", "Prepare", "BandIntervals", "Answer"):
            assert label in rendered
        assert "statements=2" in rendered
        for gone in ("backend", "CorridorFilter", "access"):
            assert gone not in rendered

    def test_explain_text_is_pinned(self, mod):
        # Captured from the plan-node renderer this text replaced: two
        # windows, a band override, rank statements, targets and FRACTION.
        statements = [
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND PROBABILITY_NN(T, 'q', TIME) > 0",
            "SELECT T FROM MOD WHERE FORALL TIME IN [0, 60] "
            "AND RANK_NN(T, 'near', TIME) <= 2",
            "SELECT T FROM MOD WHERE FRACTION TIME IN [0, 60] >= 0.25 "
            "AND PROBABILITY_NN(T, 'q', TIME) > 0 AND T = 'crossing'",
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 30] "
            "AND PROBABILITY_NN(T, 'q', TIME) > 0",
            "SELECT T FROM MOD WHERE FRACTION TIME IN [0, 30] >= 0.5 "
            "AND RANK_NN(T, 'far', TIME) <= 3 AND T = 'near'",
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 30] "
            "AND PROBABILITY_NN(T, 'near', TIME) > 0",
        ]
        rendered = QueryExecutor(mod).explain(
            statements, band_width=[None, None, None, 2.5, 2.5, None]
        )
        assert rendered == GOLDEN_EXPLAIN

    def test_explain_with_execution_appends_span_tree(self, mod):
        rendered = QueryExecutor(mod).explain(_text("q"), execute=True)
        assert "Merge" in rendered
        assert "planner.execute" in rendered


class TestExecutor:
    def test_repeated_execution_hits_the_context_cache(self, mod):
        executor = QueryExecutor(mod)
        executor.execute(_text("q"))
        assert executor.cache_info().hits == 0
        executor.execute(_text("q"))
        assert executor.cache_info().hits > 0

    def test_a_second_executor_starts_cold(self, mod):
        # Each session owns its engine; no executor is shared behind the caller.
        QueryExecutor(mod).execute(_text("q"))
        second = QueryExecutor(mod)
        second.execute(_text("q"))
        assert second.cache_info().hits == 0

    def test_execute_many_preserves_submission_order(self, mod):
        texts = [
            _text("q"),
            _text("near", t_end=30.0),
            _text("q", t_end=30.0),
        ]
        results = QueryExecutor(mod).execute_many(texts)
        assert [r.ast.predicate.query_object for r in results] == [
            "q",
            "near",
            "q",
        ]

    def test_answers_are_canonically_sorted(self, mod):
        result = QueryExecutor(mod).execute(_text("q"))
        assert result.object_ids == sorted(result.object_ids, key=str)

    def test_target_restriction(self, mod):
        executor = QueryExecutor(mod)
        holds = executor.execute(
            "SELECT T FROM MOD WHERE EXISTS TIME IN [0, 60] "
            "AND PROBABILITY_NN(T, 'q', TIME) > 0 AND T = 'crossing'"
        )
        fails = executor.execute(
            "SELECT T FROM MOD WHERE FORALL TIME IN [0, 60] "
            "AND PROBABILITY_NN(T, 'q', TIME) > 0 AND T = 'crossing'"
        )
        assert holds.holds and holds.object_ids == ["crossing"]
        assert not fails.holds

    def test_planner_metrics_land_in_the_registry(self, mod):
        registry = MetricsRegistry()
        executor = QueryExecutor(mod, registry=registry)
        executor.execute_many([_text("q"), _text("near")])
        assert registry.get("repro_planner_compilations_total").value == 1
        assert registry.get("repro_planner_statements_total").value == 2
        assert registry.get("repro_planner_group_width").count == 1
        assert registry.get("repro_planner_execute_seconds").count == 1

    def test_a_wide_group_is_one_prepare_batch(self, monkeypatch):
        from repro.engine import QueryEngine

        fleet, query_ids = multi_query_fleet(num_vehicles=24, num_queries=6)
        t_lo, t_hi = fleet.common_time_span()
        texts = [_text(query_id, t_lo, t_hi) for query_id in query_ids]
        batches = []
        prepare_batch = QueryEngine.prepare_batch

        def counted(engine, ids, *args, **kwargs):
            batches.append(list(ids))
            return prepare_batch(engine, ids, *args, **kwargs)

        monkeypatch.setattr(QueryEngine, "prepare_batch", counted)
        results = QueryExecutor(fleet).execute_many(texts)
        assert batches == [list(query_ids)]
        monkeypatch.undo()
        direct = QueryEngine(fleet)
        for query_id, result in zip(query_ids, results):
            assert result.object_ids == sorted(
                direct.answer(query_id, t_lo, t_hi), key=str
            )

    def test_store_growth_keeps_one_engine_on_the_store_index(self, mod):
        executor = QueryExecutor(mod)
        engine = executor.engine
        fleet, _ = multi_query_fleet(num_vehicles=60, num_queries=2)
        mod.add_all(list(fleet))
        result = executor.execute(_text("q", t_end=30.0))
        assert executor.engine is engine
        assert engine.index is mod.index()
        assert result.object_ids == execute_query_naive(_text("q", t_end=30.0), mod).object_ids


def _serve_through_every_mod_taking_export():
    """Run one statement through every export of ``repro.query_language``
    that takes a store; returns a weak reference to that store and the
    names of the exports called."""
    store = MovingObjectsDatabase(
        [
            straight_trajectory("q", (0.0, 0.0), (30.0, 0.0)),
            straight_trajectory("near", (0.0, 2.0), (30.0, 2.0)),
        ]
    )
    text = _text("q")
    arguments = {
        "mod": store,
        "text_or_ast": text,
        "statements": [text],
        "asts": [parse_query(text)],
        "requested": "q",
    }
    called = []
    for name in query_language.__all__:
        export = getattr(query_language, name)
        try:
            parameters = inspect.signature(export).parameters
        except ValueError:  # an exception class: no signature to read
            continue
        if "mod" not in parameters:
            continue
        result = export(
            **{
                parameter: arguments[parameter]
                for parameter, spec in parameters.items()
                if spec.default is spec.empty
            }
        )
        if isinstance(result, QueryExecutor):
            result.execute(text)
        called.append(name)
    return weakref.ref(store), called


class TestOneWayIn:
    def test_removed_front_doors_are_gone(self):
        assert importlib.util.find_spec("repro.core.continuous") is None
        assert not hasattr(repro, "ContinuousProbabilisticNNQuery")
        assert not hasattr(repro.core, "ContinuousProbabilisticNNQuery")
        for name in ("execute_query", "execute_many", "explain_plan", "executor_for", "_EXECUTORS"):
            assert not hasattr(query_language, name)
            assert not hasattr(query_language.executor, name)

    def test_a_dropped_store_is_collected(self):
        store, called = _serve_through_every_mod_taking_export()
        assert {"QueryExecutor", "compile_queries", "execute_query_naive"} <= set(called)
        gc.collect()
        assert store() is None
