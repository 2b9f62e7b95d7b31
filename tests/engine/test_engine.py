"""The batched QueryEngine: equivalence with per-query contexts, caching, batching."""

from __future__ import annotations

import pytest

from repro.core.queries import QueryContext
from repro.engine import QueryEngine, answer_of
from repro.streaming import reference_answer
from repro.obs.tracing import capture
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import UncertainTrajectory
from repro.workloads.random_waypoint import RandomWaypointConfig, generate_trajectories


def unfiltered_context(mod: MovingObjectsDatabase, query_id: object) -> QueryContext:
    lo, hi = mod.common_time_span()
    return QueryContext.from_mod(mod, query_id, lo, hi)


def assert_contexts_equivalent(
    engine_context: QueryContext, reference: QueryContext
) -> None:
    """Batched preparation must answer every query exactly like the reference."""
    assert set(engine_context.uq31_all_sometime()) == set(reference.uq31_all_sometime())
    assert set(engine_context.uq32_all_always()) == set(reference.uq32_all_always())
    assert set(engine_context.uq33_all_at_least(0.5)) == set(
        reference.uq33_all_at_least(0.5)
    )
    for object_id in reference.uq31_all_sometime():
        assert engine_context.uq11_sometime(object_id)
        assert engine_context.uq13_fraction(object_id) == pytest.approx(
            reference.uq13_fraction(object_id), abs=1e-9
        )
        engine_intervals = engine_context.nonzero_probability_intervals(object_id)
        reference_intervals = reference.nonzero_probability_intervals(object_id)
        assert len(engine_intervals) == len(reference_intervals)
        for (a_start, a_end), (b_start, b_end) in zip(
            engine_intervals, reference_intervals
        ):
            assert a_start == pytest.approx(b_start, abs=1e-7)
            assert a_end == pytest.approx(b_end, abs=1e-7)


class TestBatchMatchesPerQuery:
    def test_tiny_mod(self, tiny_mod):
        lo, hi = tiny_mod.common_time_span()
        engine = QueryEngine(tiny_mod)
        batch = engine.prepare_batch(["q", "near"], lo, hi)
        for prepared in batch:
            assert_contexts_equivalent(
                prepared.context, unfiltered_context(tiny_mod, prepared.query_id)
            )

    def test_small_mod(self, small_mod):
        lo, hi = small_mod.common_time_span()
        query_ids = small_mod.object_ids[:4]
        engine = QueryEngine(small_mod)
        batch = engine.prepare_batch(query_ids, lo, hi)
        assert [p.query_id for p in batch] == query_ids
        for prepared in batch:
            assert_contexts_equivalent(
                prepared.context, unfiltered_context(small_mod, prepared.query_id)
            )

    def test_every_query_equals_the_unfiltered_definition(self, small_mod):
        lo, hi = small_mod.common_time_span()
        query_ids = small_mod.object_ids
        batch = QueryEngine(small_mod).prepare_batch(query_ids, lo, hi)
        for prepared in batch:
            for variant, fraction in (("sometime", 0.0), ("always", 0.0), ("fraction", 0.4)):
                assert answer_of(prepared.context, variant, fraction) == reference_answer(
                    small_mod, prepared.query_id, lo, hi, variant, fraction
                )

    def test_batch_matches_single_prepares(self, small_mod):
        lo, hi = small_mod.common_time_span()
        query_ids = small_mod.object_ids[:4]
        batch = QueryEngine(small_mod).prepare_batch(query_ids, lo, hi)
        engine = QueryEngine(small_mod)
        for prepared in batch:
            alone = engine.prepare(prepared.query_id, lo, hi)
            assert prepared.candidate_count == alone.candidate_count
            assert prepared.corridor_radius == alone.corridor_radius
            assert prepared.context.uq31_all_sometime() == alone.context.uq31_all_sometime()
            assert prepared.context.survivor_intervals() == alone.context.survivor_intervals()

    def test_zero_length_window_is_not_filtered(self, tiny_mod):
        engine = QueryEngine(tiny_mod)
        prepared = engine.prepare("q", 30.0, 30.0)
        assert prepared.candidate_count == len(tiny_mod) - 1
        assert prepared.corridor_radius is None
        assert answer_of(prepared.context, "sometime") == reference_answer(
            tiny_mod, "q", 30.0, 30.0
        )


class TestFilterSafety:
    """The index filter may never drop an object that survives the 4r band."""

    @pytest.mark.parametrize("seed", [3, 21, 99])
    def test_band_survivors_retained_random(self, seed):
        config = RandomWaypointConfig(num_objects=24, uncertainty_radius=0.5, seed=seed)
        mod = MovingObjectsDatabase(generate_trajectories(config))
        lo, hi = mod.common_time_span()
        engine = QueryEngine(mod)
        for query_id in mod.object_ids[:5]:
            reference = unfiltered_context(mod, query_id)
            survivors = {f.object_id for f in reference.survivors()}
            candidates = set(engine.candidate_ids(query_id, lo, hi))
            assert survivors <= candidates
            prepared = engine.prepare(query_id, lo, hi)
            assert survivors == {f.object_id for f in prepared.context.survivors()}

    def test_band_survivors_retained_tiny(self, tiny_mod):
        lo, hi = tiny_mod.common_time_span()
        engine = QueryEngine(tiny_mod)
        reference = unfiltered_context(tiny_mod, "q")
        survivors = {f.object_id for f in reference.survivors()}
        assert survivors <= set(engine.candidate_ids("q", lo, hi))


class TestContextCache:
    def test_cache_hit_returns_identical_object(self, small_mod):
        lo, hi = small_mod.common_time_span()
        engine = QueryEngine(small_mod)
        first = engine.prepare(small_mod.object_ids[0], lo, hi)
        second = engine.prepare(small_mod.object_ids[0], lo, hi)
        assert not first.from_cache
        assert second.from_cache
        assert second.context is first.context

    def test_batch_refresh_hits_cache(self, small_mod):
        lo, hi = small_mod.common_time_span()
        query_ids = small_mod.object_ids[:3]
        engine = QueryEngine(small_mod)
        cold = engine.prepare_batch(query_ids, lo, hi)
        warm = engine.prepare_batch(query_ids, lo, hi)
        assert not any(p.from_cache for p in cold)
        assert all(p.from_cache for p in warm)
        for cold_prepared, warm_prepared in zip(cold, warm):
            assert warm_prepared.context is cold_prepared.context
        info = engine.cache_info()
        assert info.hits == len(query_ids)
        assert info.misses == len(query_ids)

    def test_duplicate_ids_in_one_batch_share_context(self, small_mod):
        lo, hi = small_mod.common_time_span()
        query_id = small_mod.object_ids[0]
        engine = QueryEngine(small_mod)
        batch = engine.prepare_batch([query_id, query_id], lo, hi)
        assert batch.prepared[1].context is batch.prepared[0].context
        assert batch.prepared[1].from_cache

    def test_different_windows_do_not_collide(self, small_mod):
        lo, hi = small_mod.common_time_span()
        mid = (lo + hi) / 2.0
        engine = QueryEngine(small_mod)
        query_id = small_mod.object_ids[0]
        full = engine.prepare(query_id, lo, hi)
        half = engine.prepare(query_id, lo, mid)
        assert half.context is not full.context
        assert half.context.t_end == mid

    def test_invalidate_drops_cached_contexts(self, small_mod):
        lo, hi = small_mod.common_time_span()
        engine = QueryEngine(small_mod)
        query_id = small_mod.object_ids[0]
        first = engine.prepare(query_id, lo, hi)
        assert engine.invalidate(query_id) == 1
        rebuilt = engine.prepare(query_id, lo, hi)
        assert not rebuilt.from_cache
        assert rebuilt.context is not first.context


class TestBatchStatistics:
    def test_batch_result_shape(self, small_mod):
        lo, hi = small_mod.common_time_span()
        query_ids = small_mod.object_ids[:3]
        batch = QueryEngine(small_mod).prepare_batch(query_ids, lo, hi)
        assert len(batch) == 3
        assert set(batch.contexts) == set(query_ids)
        assert batch.total_seconds > 0
        assert batch.mean_prepare_seconds > 0
        assert 0.0 <= batch.mean_filter_ratio <= 1.0
        assert 0.0 <= batch.mean_band_pruning_ratio() <= 1.0
        for prepared in batch:
            assert prepared.total_candidates == len(small_mod) - 1
            assert 0 < prepared.candidate_count <= prepared.total_candidates

    def test_rejects_unknown_index_kind_string(self, tiny_mod):
        # The store's box table is the one index kind; the engine takes none.
        with pytest.raises(ValueError, match="unknown index kind"):
            tiny_mod.build_index("r-tree")
        with pytest.raises(TypeError, match="index"):
            QueryEngine(tiny_mod, index="r-tree")

    def test_engine_over_an_empty_store_starts_and_follows_adds(self, tiny_mod):
        mod = MovingObjectsDatabase()
        engine = QueryEngine(mod)
        assert len(engine.index) == 0
        with pytest.raises(KeyError):
            engine.prepare("q", 0.0, 60.0)
        mod.add_all(list(tiny_mod))
        lo, hi = mod.common_time_span()
        assert engine.answer("q", lo, hi) == reference_answer(mod, "q", lo, hi)
        assert engine.index is mod.index()


class TestSingleQueryPrepare:
    def test_prepare_is_a_one_member_prepare_batch(self, tiny_mod, monkeypatch):
        lo, hi = tiny_mod.common_time_span()
        engine = QueryEngine(tiny_mod)
        calls = []
        prepare_batch = QueryEngine.prepare_batch

        def counted(self, query_ids, *args, **kwargs):
            calls.append(list(query_ids))
            return prepare_batch(self, query_ids, *args, **kwargs)

        monkeypatch.setattr(QueryEngine, "prepare_batch", counted)
        cold = engine.prepare("q", lo, hi)
        warm = engine.prepare("q", lo, hi, band_width=None)
        assert calls == [["q"], ["q"]]
        assert not cold.from_cache and warm.from_cache
        assert warm.context is cold.context
        assert engine.cache_info().hits == 1 and engine.cache_info().misses == 1


class TestWindowValidation:
    def test_rejects_inverted_window(self, tiny_mod):
        lo, hi = tiny_mod.common_time_span()
        engine = QueryEngine(tiny_mod)
        with pytest.raises(ValueError, match="empty query window"):
            engine.prepare("q", hi, lo)
        with pytest.raises(ValueError, match="empty query window"):
            engine.prepare_batch(["q"], hi, lo)

    def test_degenerate_window_prepares_without_filtering(self, tiny_mod):
        lo, _ = tiny_mod.common_time_span()
        engine = QueryEngine(tiny_mod)
        prepared = engine.prepare("q", lo, lo)
        assert prepared.candidate_count == len(tiny_mod) - 1
        assert prepared.corridor_radius is None
        assert prepared.context.t_start == prepared.context.t_end == lo


class TestModMutation:
    def test_added_object_becomes_visible(self, small_mod):
        from ..conftest import straight_trajectory

        lo, hi = small_mod.common_time_span()
        engine = QueryEngine(small_mod)
        query_id = small_mod.object_ids[0]
        before = engine.prepare(query_id, lo, hi)
        # A companion glued to the query trajectory must appear as both a
        # candidate and a band survivor after insertion.
        query = small_mod.get(query_id)
        companion = straight_trajectory(
            "companion",
            (query.position_at(lo).x + 0.1, query.position_at(lo).y),
            (query.position_at(hi).x + 0.1, query.position_at(hi).y),
            t_lo=lo,
            t_hi=hi,
        )
        small_mod.add(companion)
        try:
            after = engine.prepare(query_id, lo, hi)
            assert not after.from_cache  # the stale cached context was dropped
            assert after.total_candidates == before.total_candidates + 1
            assert "companion" in set(engine.candidate_ids(query_id, lo, hi))
            assert "companion" in {
                f.object_id for f in after.context.survivors()
            }
        finally:
            small_mod.remove("companion")

    def test_removed_object_disappears(self, small_mod):
        lo, hi = small_mod.common_time_span()
        engine = QueryEngine(small_mod)
        query_id = small_mod.object_ids[0]
        victim = small_mod.object_ids[-1]
        engine.prepare(query_id, lo, hi)
        removed = small_mod.remove(victim)
        try:
            after = engine.prepare(query_id, lo, hi)
            assert victim not in after.context.functions
            assert after.total_candidates == len(small_mod) - 1
        finally:
            small_mod.add(removed)


class TestDifferenceFallbackObservability:
    """Scalar-fallback candidates show in the engine's metrics and kernel span."""

    @staticmethod
    def fleet(off_cadence: float) -> MovingObjectsDatabase:
        # Four vehicles reporting each minute; the third's report at minute 5
        # is ``off_cadence`` late.
        def samples(index):
            late = off_cadence if index == 2 else 0.0
            return [
                (index + 0.1 * t, 0.5 * index, t + (late if t == 5.0 else 0.0))
                for t in (float(minute) for minute in range(11))
            ]

        return MovingObjectsDatabase(
            UncertainTrajectory(f"v{index}", samples(index), 0.3) for index in range(4)
        )

    @pytest.mark.parametrize("off_cadence, expected", [(0.0, 0), (3e-10, 1)])
    def test_counter_and_span_attribute(self, off_cadence, expected):
        engine = QueryEngine(self.fleet(off_cadence))
        with capture() as recorder:
            engine.prepare("v0", 2.5, 8.5)
        kernel = recorder.latest().find("engine.kernel")
        assert kernel.attrs["scalar_fallbacks"] == expected
        snapshot = engine.registry.snapshot()
        assert (
            snapshot["repro_engine_difference_fallback_candidates_total"]["value"]
            == expected
        )


class TestFrontObservability:
    """What the kinetic front did shows on every ``engine.kernel`` span and in
    the slab counter, for the envelope and for a rank statement's levels."""

    def test_envelope_and_level_envelopes_report_through_the_engine(self):
        from repro.query_language import QueryExecutor
        from repro.workloads.scenarios import multi_query_fleet

        mod, query_ids = multi_query_fleet(num_vehicles=120, num_queries=4, seed=29)
        executor = QueryExecutor(mod)
        statement = (
            "SELECT T FROM MOD WHERE EXISTS TIME IN [20, 32] "
            f"AND RANK_NN(T, '{query_ids[0]}', TIME) <= 3"
        )
        with capture() as recorder:
            executor.execute_many([statement, statement])
        root = recorder.latest()
        batch = root.find("engine.prepare_batch")
        envelope = batch.find("engine.kernel")
        first, second = [
            span for span in root.children if span.name == "engine.kernel"
        ]
        # The cold prepare built the envelope; the first rank statement
        # built the level envelopes; the second found them on the context.
        assert envelope.attrs["candidates"] >= 32 and envelope.attrs["events"] > 0
        assert first.attrs["rank"] == 3 and first.attrs["events"] > 0
        assert second.attrs["events"] == 0
        for span in (envelope, first, second):
            assert span.attrs["dirty_slabs"] == 0
            assert span.attrs["dirty_time_share"] == 0.0
        # The front walked a few contenders of each pack, and nothing when
        # the levels were already built.
        assert 0.0 < envelope.attrs["walked_share"] < 0.5
        assert 0.0 < first.attrs["walked_share"] < 1.0
        assert second.attrs["walked_share"] == 0.0
        snapshot = executor.registry.snapshot()
        assert snapshot['repro_geometry_envelope_slabs_total{kind="clean"}']["value"] == 2
        assert snapshot['repro_geometry_envelope_slabs_total{kind="dirty"}']["value"] == 0


class TestBandObservability:
    """What the band pass did shows on the spans around preparing and
    answering and in ``repro_core_band_rows_total``: the engine runs it
    when it builds a context, one pass per batch under ``engine.band``."""

    def test_answer_spans_report_the_band_pass(self):
        from repro.service.pool import EnginePool
        from repro.workloads.scenarios import multi_query_fleet

        mod, query_ids = multi_query_fleet(num_vehicles=120, num_queries=4, seed=29)
        engine = QueryEngine(mod)
        with capture() as recorder:
            engine.answer(query_ids[0], 20.0, 28.0)
            engine.answer(query_ids[0], 20.0, 28.0)
        cold, warm = recorder.spans()
        assert cold.name == warm.name == "engine.answer"
        assert cold.attrs["band_rows"] > 0 and cold.attrs["band_scalar"] == 0
        assert (
            cold.attrs["band_bounded"] + cold.attrs["band_refined"]
            == cold.attrs["band_rows"]
        )
        # The second answer finds the intervals on the cached context.
        assert warm.attrs["band_rows"] == 0
        snapshot = engine.registry.snapshot()
        for kind in ("bounded", "refined"):
            assert (
                snapshot[f'repro_core_band_rows_total{{kind="{kind}"}}']["value"]
                == cold.attrs[f"band_{kind}"]
            )
        assert 'repro_core_band_rows_total{kind="scalar"}' not in snapshot

        with EnginePool(mod) as pool:
            with capture() as recorder:
                pool.answer_group(query_ids[:2], 20.0, 28.0)
            group = recorder.latest().find("pool.answer_group")
            assert group.attrs["band_rows"] >= cold.attrs["band_rows"]
            assert group.attrs["band_scalar"] == 0
            rows = pool.registry.snapshot()['repro_core_band_rows_total{kind="bounded"}']
            assert rows["value"] == group.attrs["band_bounded"]
