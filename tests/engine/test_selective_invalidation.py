"""Selective cache invalidation: only contexts a change can affect are dropped."""

import pytest

from repro.core.queries import QueryContext
from repro.engine import QueryEngine
from repro.reference.boxes import segment_boxes
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import TrajectorySample, UncertainTrajectory
from repro.workloads.scenarios import multi_query_fleet

from ..conftest import straight_trajectory


@pytest.fixture
def world():
    mod, query_ids = multi_query_fleet(num_vehicles=48, num_queries=5, seed=29)
    return mod, query_ids


def fresh_answers(mod, query_ids, t_lo, t_hi):
    answers = {}
    for query_id in query_ids:
        context = QueryContext.from_mod(mod, query_id, t_lo, t_hi)
        answers[query_id] = {
            str(member): tuple(
                (round(a, 9), round(b, 9))
                for a, b in context.nonzero_probability_intervals(member)
            )
            for member in context.uq31_all_sometime()
        }
    return answers


def engine_answers(batch):
    return {
        prepared.query_id: {
            str(member): tuple(
                (round(a, 9), round(b, 9))
                for a, b in prepared.context.nonzero_probability_intervals(member)
            )
            for member in prepared.context.uq31_all_sometime()
        }
        for prepared in batch
    }


class TestUnrelatedChangesKeepCaches:
    def test_far_away_insert_keeps_every_cached_context(self, world):
        mod, query_ids = world
        lo, hi = mod.common_time_span()
        engine = QueryEngine(mod)
        engine.prepare_batch(query_ids, lo, hi)
        mod.add(
            UncertainTrajectory(
                "far", [(9e3, 9e3, lo), (9.1e3, 9.1e3, hi)], 0.3
            )
        )
        refreshed = engine.prepare_batch(query_ids, lo, hi)
        assert all(prepared.from_cache for prepared in refreshed)

    def test_far_away_removal_keeps_every_cached_context(self, world):
        mod, query_ids = world
        lo, hi = mod.common_time_span()
        mod.add(
            UncertainTrajectory(
                "far", [(9e3, 9e3, lo), (9.1e3, 9.1e3, hi)], 0.3
            )
        )
        engine = QueryEngine(mod)
        engine.prepare_batch(query_ids, lo, hi)
        mod.remove("far")
        refreshed = engine.prepare_batch(query_ids, lo, hi)
        assert all(prepared.from_cache for prepared in refreshed)

    def test_extension_beyond_window_keeps_caches(self, world):
        mod, query_ids = world
        lo, hi = mod.common_time_span()
        engine = QueryEngine(mod)
        engine.prepare_batch(query_ids, lo, hi)
        victim = next(oid for oid in mod.object_ids if oid not in query_ids)
        old = mod.get(victim)
        extended = UncertainTrajectory(
            victim,
            list(old.samples)
            + [TrajectorySample(old.samples[-1].x, old.samples[-1].y, hi + 10.0)],
            old.radius,
        )
        mod.replace_trajectory(extended)
        refreshed = engine.prepare_batch(query_ids, lo, hi)
        assert all(prepared.from_cache for prepared in refreshed)


class TestAffectingChangesInvalidate:
    def test_candidate_edit_inside_window_invalidates_its_queries(self, world):
        mod, query_ids = world
        lo, hi = mod.common_time_span()
        engine = QueryEngine(mod)
        batch = engine.prepare_batch(query_ids, lo, hi)
        target = batch.prepared[0]
        # Move one of the target query's own candidates onto the query path.
        victim = next(iter(target.context.functions))
        query = mod.get(target.query_id)
        mod.replace_trajectory(
            UncertainTrajectory(
                victim,
                [TrajectorySample(s.x, s.y, s.t) for s in query.samples],
                mod.get(victim).radius,
            )
        )
        refreshed = engine.prepare_batch(query_ids, lo, hi)
        assert not refreshed.prepared[0].from_cache

    def test_query_own_change_invalidates_it(self, world):
        mod, query_ids = world
        lo, hi = mod.common_time_span()
        engine = QueryEngine(mod)
        engine.prepare_batch(query_ids, lo, hi)
        query = mod.get(query_ids[0])
        moved = UncertainTrajectory(
            query_ids[0],
            [TrajectorySample(s.x + 1.0, s.y, s.t) for s in query.samples],
            query.radius,
        )
        mod.replace_trajectory(moved)
        refreshed = engine.prepare_batch(query_ids, lo, hi)
        assert not refreshed.prepared[0].from_cache

    def test_removed_query_context_is_dropped(self, world):
        mod, query_ids = world
        lo, hi = mod.common_time_span()
        engine = QueryEngine(mod)
        engine.prepare(query_ids[0], lo, hi)
        mod.remove(query_ids[0])
        engine.refresh()
        assert engine.cache_info().size == 0


class TestInvalidationScansTheStoreTable:
    """A changed non-candidate drops a context only when the store's table,
    the filter a fresh build scans, puts it in the context's corridor."""

    def test_a_leg_box_that_only_unsliced_meets_the_corridor_keeps_the_context(self):
        # ``q`` drives east along y = 0 beside ``a``; ``d`` drives south
        # across q's path near its end, but reaches y = 0 at minute 30,
        # when q is 45 miles away.  Its one-leg box spans the whole window
        # and meets q's corridor; its sliced table rows do not.
        mod = MovingObjectsDatabase([
            straight_trajectory("q", (0.0, 0.0), (100.0, 0.0)),
            straight_trajectory("a", (0.0, 2.0), (100.0, 2.0)),
            straight_trajectory("d", (95.0, 40.0), (95.0, -40.0)),
        ])
        engine = QueryEngine(mod)
        prepared = engine.prepare("q", 0.0, 60.0)
        assert list(prepared.context.functions) == ["a"]
        mod.replace_trajectory(straight_trajectory("d", (96.0, 40.0), (96.0, -40.0)))
        corridor = segment_boxes(mod.get("q"), spatial_margin=0.0)[0].box.expanded(
            prepared.corridor_radius
        )
        assert segment_boxes(mod.get("d"))[0].box.intersects(corridor)
        assert QueryEngine(mod).candidate_ids("q", 0.0, 60.0) == ["a"]

        again = engine.prepare_batch(["q"], 0.0, 60.0)
        assert again.prepared[0].from_cache
        assert engine_answers(again) == fresh_answers(mod, ["q"], 0.0, 60.0)

    def test_an_insert_beside_a_zero_length_window_drops_its_context(self):
        # A zero-length window is not filtered, so a fresh build keeps the
        # new object: the context is dropped, and refreshing does not raise.
        mod = MovingObjectsDatabase([
            straight_trajectory("q", (0.0, 0.0), (100.0, 0.0)),
            straight_trajectory("a", (0.0, 2.0), (100.0, 2.0)),
        ])
        engine = QueryEngine(mod)
        engine.prepare("q", 30.0, 30.0)
        mod.add(straight_trajectory("b", (0.0, 1.0), (100.0, 1.0)))
        engine.refresh()
        assert engine.cache_info().size == 0
        prepared = engine.prepare("q", 30.0, 30.0)
        assert sorted(prepared.context.functions) == ["a", "b"]


class TestAnswersAlwaysMatchFreshEngine:
    def test_answers_match_after_mixed_mutation_sequence(self, world):
        """The oracle: cached-path answers == from-scratch answers, always."""
        mod, query_ids = world
        lo, hi = mod.common_time_span()
        engine = QueryEngine(mod)
        engine.prepare_batch(query_ids, lo, hi)

        # A far insert, a near replace, a removal, and a pure extension.
        mod.add(
            UncertainTrajectory("far", [(8e3, 8e3, lo), (8e3, 8.2e3, hi)], 0.3)
        )
        query = mod.get(query_ids[1])
        shadow = next(
            oid for oid in mod.object_ids if oid not in query_ids and oid != "far"
        )
        mod.replace_trajectory(
            UncertainTrajectory(
                shadow,
                [TrajectorySample(s.x, s.y, s.t) for s in query.samples],
                mod.get(shadow).radius,
            )
        )
        removable = next(
            oid
            for oid in mod.object_ids
            if oid not in query_ids and oid not in ("far", shadow)
        )
        mod.remove(removable)
        extendable = next(
            oid
            for oid in mod.object_ids
            if oid not in query_ids and oid not in ("far", shadow)
        )
        old = mod.get(extendable)
        mod.replace_trajectory(
            UncertainTrajectory(
                extendable,
                list(old.samples)
                + [TrajectorySample(old.samples[-1].x, old.samples[-1].y, hi + 5.0)],
                old.radius,
            )
        )

        batch = engine.prepare_batch(query_ids, lo, hi)
        assert engine_answers(batch) == fresh_answers(mod, query_ids, lo, hi)


class TestExtensionsSkipStaleContextsCheaply:
    def test_extension_batch_builds_no_relevant_set_and_probes_nothing(
        self, world, monkeypatch
    ):
        # 100 cached windows, all ending by the old horizon; one batch then
        # extends every vehicle past it.  No context can be affected, and
        # each is cleared by one comparison with the earliest divergence.
        from repro.engine import engine as engine_module

        mod, query_ids = world
        lo, hi = mod.common_time_span()
        starts = [lo + 2.0 * step for step in range(20)]
        engine = QueryEngine(mod)
        for start in starts:
            engine.prepare_batch(query_ids, start, start + 30.0)
        assert engine.cache_info().size == 100
        mod.upsert_many(
            UncertainTrajectory(
                trajectory.object_id,
                list(trajectory.samples)
                + [TrajectorySample(trajectory.samples[-1].x + 0.5, 0.0, hi + 4.0)],
                trajectory.radius,
            )
            for trajectory in list(mod)
        )

        class Divergences(dict):
            item_reads = 0

            def items(self):
                Divergences.item_reads += 1
                return super().items()

        invalidate = engine._invalidate_affected
        monkeypatch.setattr(
            engine, "_invalidate_affected", lambda changed: invalidate(Divergences(changed))
        )
        probes = []
        probe = engine_module.corridor_probe_bulk
        monkeypatch.setattr(
            engine_module,
            "corridor_probe_bulk",
            lambda *args, **kwargs: probes.append(args) or probe(*args, **kwargs),
        )
        engine.refresh()
        assert Divergences.item_reads == 0
        assert probes == []
        assert engine.cache_info().size == 100
        monkeypatch.undo()
        for start in starts:
            batch = engine.prepare_batch(query_ids, start, start + 30.0)
            assert all(prepared.from_cache for prepared in batch)
            assert engine_answers(batch) == fresh_answers(
                mod, query_ids, start, start + 30.0
            )
