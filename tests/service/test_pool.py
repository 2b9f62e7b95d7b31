"""The warm engine pool: one engine, exact answers, what a group engages."""

import asyncio

import pytest

from repro.engine import QueryEngine
from repro.obs.metrics import MetricsRegistry
from repro.parallel import ShardedEngine
from repro.query_language import PlannedStatement
from repro.service import EnginePool, QueryService
from repro.streaming import ContinuousMonitor
from repro.workloads.scenarios import multi_query_fleet


@pytest.fixture(scope="module")
def fleet():
    return multi_query_fleet(num_vehicles=24, num_queries=4)


@pytest.fixture(scope="module")
def large_fleet():
    """A store above the 192 objects that once routed a pool to sharding."""
    return multi_query_fleet(num_vehicles=200, num_queries=4, seed=5)


class TestOneEngine:
    def test_engines_stay_warm_across_groups(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        with EnginePool(mod) as pool:
            pool.answer_group(query_ids, lo, hi)
            engine = pool.single_engine()
            pool.answer_group(query_ids, lo, hi)
            assert pool.single_engine() is engine
            assert engine.cache_info().hits > 0

    def test_warm_up_builds_the_engine(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        with EnginePool(mod) as pool:
            assert pool.warm_up() == "single"
            engine = pool.single_engine()
            assert engine.index is not None
            pool.answer_group(query_ids, lo, hi)
            assert pool.single_engine() is engine  # warm engine was reused
        assert pool.backend_kind() == "single"

    def test_close_drops_the_engine_and_the_next_batch_rebuilds(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        pool = EnginePool(mod)
        first = pool.answer_group(query_ids, lo, hi)
        engine = pool.single_engine()
        pool.close()
        pool.close()  # idempotent
        second = pool.answer_group(query_ids, lo, hi)
        assert pool.single_engine() is not engine
        assert second.answers == first.answers

    def test_engine_reports_into_the_pool_registry(self):
        # A store of its own: the module fleet's index is already built.
        mod, query_ids = multi_query_fleet(num_vehicles=24, num_queries=4)
        lo, hi = mod.common_time_span()
        registry = MetricsRegistry()
        with EnginePool(mod, registry=registry) as pool:
            assert pool.registry is registry
            pool.answer_group(query_ids, lo, hi)
            pool.answer_group(query_ids, lo, hi)
        snapshot = registry.snapshot()
        assert snapshot["repro_engine_index_build_seconds"]["count"] == 1
        assert snapshot["repro_engine_batch_seconds"]["count"] == 2
        assert registry.get("repro_engine_cache_hits_total").value == len(query_ids)

    def test_backend_options_are_gone(self, fleet):
        mod, _ = fleet
        for option, value in [
            ("shard_threshold", 10),
            ("num_shards", 2),
            ("sharded_backend", "thread"),
            ("force_backend", "single"),
            ("max_workers", 2),
            ("mp_start_method", "spawn"),
        ]:
            with pytest.raises(TypeError, match=option):
                EnginePool(mod, **{option: value})

    def test_index_settings_are_gone(self, fleet):
        # The pool's engine, and every other, filters through mod.index().
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        engine = EnginePool(mod).single_engine()
        assert engine.index is mod.index()
        assert not hasattr(engine, "index_kind")
        for option, value in [
            ("index", "grid"),
            ("index", None),
            ("index", mod.index()),
            ("leaf_capacity", 8),
            ("grid_cells", 16),
        ]:
            with pytest.raises(TypeError, match=option):
                QueryEngine(mod, **{option: value})
        with pytest.raises(TypeError):
            QueryEngine(mod, "grid")
        with pytest.raises(TypeError, match="use_index"):
            engine.prepare(query_ids[0], lo, hi, use_index=False)
        with pytest.raises(TypeError, match="use_index"):
            engine.prepare_batch(query_ids, lo, hi, use_index=False)
        with pytest.raises(TypeError, match="index"):
            ContinuousMonitor(mod, index=None)
        with pytest.raises(TypeError):
            mod.index("grid")
        with pytest.raises(TypeError):
            mod.sync_index("rtree", 16, 32)
        with pytest.raises(TypeError, match="cells"):
            mod.build_index("rtree", cells=8)
        with pytest.raises(TypeError, match="leaf_capacity"):
            mod.build_index("rtree", leaf_capacity=16)
        with pytest.raises(ValueError, match="unknown index kind"):
            mod.build_index("grid")


class TestExactness:
    @pytest.mark.parametrize(
        "variant,fraction", [("sometime", 0.0), ("always", 0.0), ("fraction", 0.4)]
    )
    def test_answers_match_direct_engine(self, fleet, variant, fraction):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        direct = QueryEngine(mod)
        expected = {
            query_id: direct.answer(
                query_id, lo, hi, variant=variant, fraction=fraction
            )
            for query_id in query_ids
        }
        with EnginePool(mod) as pool:
            result = pool.answer_group(
                query_ids, lo, hi, variant=variant, fraction=fraction
            )
        assert result.answers == expected

    @pytest.mark.parametrize(
        "variant,fraction", [("sometime", 0.0), ("always", 0.0), ("fraction", 0.4)]
    )
    def test_large_store_answers_match_direct_engine(
        self, large_fleet, variant, fraction
    ):
        mod, query_ids = large_fleet
        lo, hi = mod.common_time_span()
        direct = QueryEngine(mod)
        expected = {
            query_id: direct.answer(
                query_id, lo, hi, variant=variant, fraction=fraction
            )
            for query_id in query_ids
        }
        with EnginePool(mod) as pool:
            result = pool.answer_group(
                query_ids, lo, hi, variant=variant, fraction=fraction
            )
        assert result.answers == expected

    def test_band_width_reaches_the_engine(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        direct = QueryEngine(mod)
        with EnginePool(mod) as pool:
            for band_width in (0.5, 1.5):
                result = pool.answer_group(query_ids, lo, hi, band_width=band_width)
                assert result.answers == {
                    query_id: direct.answer(query_id, lo, hi, band_width=band_width)
                    for query_id in query_ids
                }

    def test_repeated_ids_are_answered_once(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        with EnginePool(mod) as pool:
            result = pool.answer_group(
                [query_ids[0], query_ids[1], query_ids[0]], lo, hi
            )
        assert list(result.answers) == [query_ids[0], query_ids[1]]
        direct = QueryEngine(mod)
        assert result.answers[query_ids[0]] == direct.answer(query_ids[0], lo, hi)

    def test_an_empty_group_has_no_answers(self, fleet):
        mod, _ = fleet
        lo, hi = mod.common_time_span()
        with EnginePool(mod) as pool:
            assert pool.answer_group([], lo, hi).answers == {}


def test_a_large_store_group_is_one_prepare_batch_and_no_sharded_engine(
    monkeypatch,
):
    """Store size picks nothing: a 200-object store's group is one batch."""
    mod, query_ids = multi_query_fleet(num_vehicles=200, num_queries=6, seed=5)
    assert len(mod) >= 192 and len(query_ids) == 6
    lo, hi = mod.common_time_span()
    batches = []
    sharded = []
    prepare_batch = QueryEngine.prepare_batch
    sharded_init = ShardedEngine.__init__

    def counted(engine, ids, *args, **kwargs):
        batches.append(list(ids))
        return prepare_batch(engine, ids, *args, **kwargs)

    def spied(engine, *args, **kwargs):
        sharded.append(args)
        sharded_init(engine, *args, **kwargs)

    monkeypatch.setattr(QueryEngine, "prepare_batch", counted)
    monkeypatch.setattr(ShardedEngine, "__init__", spied)

    async def serve():
        async with QueryService(mod) as service:
            return await service.submit_all(
                [PlannedStatement(query_id, lo, hi) for query_id in query_ids]
            )

    responses = asyncio.run(serve())
    assert batches == [list(query_ids)]
    assert sharded == []
    assert {response.backend for response in responses} == {"single"}
    assert all(response.batch_size == 6 for response in responses)
    direct = QueryEngine(mod)
    assert all(
        response.answer == direct.answer(response.request.query_id, lo, hi)
        for response in responses
    )
