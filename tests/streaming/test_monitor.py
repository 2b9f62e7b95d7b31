"""ContinuousMonitor: correctness oracle, selectivity, and API behavior."""

import pytest

from repro.streaming import (
    ContinuousMonitor,
    NeighborAppeared,
    answers_equal,
    reference_answer,
    replay_deltas,
)
from repro.trajectories.updates import LocationUpdate
from repro.workloads.scenarios import streaming_fleet


@pytest.fixture
def world():
    return streaming_fleet(
        num_vehicles=24, num_queries=3, horizon_minutes=20.0, num_batches=3, seed=47
    )


def build_monitor(scenario, **register_kwargs):
    monitor = ContinuousMonitor(scenario.mod)
    for query_id in scenario.query_ids:
        monitor.register(query_id, **register_kwargs)
    for object_id in scenario.mod.object_ids:
        monitor.track(
            object_id,
            max_speed=scenario.max_speed,
            minimum_radius=scenario.uncertainty_radius,
        )
    return monitor


def assert_matches_oracle(monitor, replayed):
    """Replayed deltas and live answers both match from-scratch recomputation."""
    for standing in monitor.standing_queries:
        window = monitor.resolve_window(standing.key)
        oracle = reference_answer(
            monitor.mod,
            standing.query_id,
            window[0],
            window[1],
            standing.variant,
            standing.fraction,
            standing.band_width,
        )
        assert answers_equal(monitor.answers(standing.key), oracle), standing.key
        assert answers_equal(replayed.get(standing.key, {}), oracle), standing.key


class TestCorrectnessOracle:
    """The ISSUE acceptance bar: deltas reconstruct the from-scratch answers."""

    @pytest.mark.parametrize(
        "register_kwargs",
        [
            {"sliding": 10.0},
            {"window": (5.0, 18.0)},
            {"sliding": 12.0, "variant": "always"},
            {"sliding": 12.0, "variant": "fraction", "fraction": 0.3},
        ],
    )
    def test_replayed_deltas_match_scratch_recomputation(
        self, world, register_kwargs
    ):
        monitor = build_monitor(world, **register_kwargs)
        events = []
        monitor.subscribe(events.append)
        # Registration already emitted initial events before subscription;
        # reconstruct from the live answers instead for batch 0.
        initial = {
            standing.key: monitor.answers(standing.key)
            for standing in monitor.standing_queries
        }
        for batch in world.batches:
            for object_id, reports in batch.items():
                monitor.ingest(object_id, reports)
            monitor.apply()
        replayed = replay_deltas(events, initial=initial)
        assert_matches_oracle(monitor, replayed)

    def test_partial_fleet_batches_also_match(self, world):
        monitor = build_monitor(world, sliding=10.0)
        events = []
        monitor.subscribe(events.append)
        initial = {
            standing.key: monitor.answers(standing.key)
            for standing in monitor.standing_queries
        }
        # Only a third of the fleet reports each batch; silent vehicles keep
        # their old horizon, so the common span (and windows) stay put.
        reporters = world.mod.object_ids[::3]
        for batch in world.batches:
            for object_id in reporters:
                monitor.ingest(object_id, batch[object_id])
            monitor.apply()
        replayed = replay_deltas(events, initial=initial)
        assert_matches_oracle(monitor, replayed)

    def test_full_fleet_batch_then_one_vehicle_batch(self):
        # A full-fleet batch is one patch of the store's index, which
        # compacts itself once the new boxes outgrow its spare block; the
        # next batch changes one vehicle and is patched onto the same table
        # (tombstones + appended rows).  Both refreshes must leave the
        # standing answers equal to a from-scratch evaluation.
        world = streaming_fleet(
            num_vehicles=40, num_queries=3, horizon_minutes=20.0, num_batches=3, seed=5
        )
        monitor = build_monitor(world, sliding=10.0)
        events = []
        monitor.subscribe(events.append)
        initial = {
            standing.key: monitor.answers(standing.key)
            for standing in monitor.standing_queries
        }
        tree = monitor.engine.index
        entries = len(tree)
        for object_id, reports in world.batches[0].items():
            monitor.ingest(object_id, reports)
        assert len(monitor.apply().changed_ids) == 40
        assert monitor.engine.index is tree and tree.compactions == 1  # patched, compacted
        assert len(tree) > entries
        assert_matches_oracle(monitor, replay_deltas(events, initial=initial))
        for reporter in (world.query_ids[0], world.mod.object_ids[-1]):
            entries = len(tree)
            monitor.ingest(reporter, world.batches[1][reporter])
            assert monitor.apply().changed_ids == (reporter,)
            assert monitor.engine.index is tree and len(tree) > entries  # patched
            assert_matches_oracle(monitor, replay_deltas(events, initial=initial))

    def test_registration_events_replay_from_empty(self, world):
        monitor = ContinuousMonitor(world.mod)
        events = []
        monitor.subscribe(events.append)
        standing = monitor.register(world.query_ids[0], sliding=10.0)
        assert events, "registration must emit the initial answer"
        assert all(isinstance(event, NeighborAppeared) for event in events)
        replayed = replay_deltas(events)
        assert answers_equal(replayed[standing.key], monitor.answers(standing.key))


class TestSelectivity:
    def test_pure_extension_of_silent_windows_recomputes_nothing(self, world):
        monitor = build_monitor(world, sliding=10.0)
        evaluations = {
            standing.key: monitor.evaluation_count(standing.key)
            for standing in monitor.standing_queries
        }
        # One vehicle reports beyond every window; the common span cannot
        # advance because the rest of the fleet is silent.
        reporter = world.mod.object_ids[-1]
        monitor.ingest(reporter, world.batches[0][reporter])
        report = monitor.apply()
        assert report.changed_ids == (reporter,)
        assert report.affected_queries == ()
        assert report.events == ()
        for standing in monitor.standing_queries:
            assert monitor.evaluation_count(standing.key) == evaluations[standing.key]

    def test_full_fleet_batch_reports_changed_ids(self, world):
        monitor = build_monitor(world, sliding=10.0)
        for object_id, reports in world.batches[0].items():
            monitor.ingest(object_id, reports)
        report = monitor.apply()
        assert set(report.changed_ids) == set(world.mod.object_ids)
        assert report.batch == 1


class TestSharedCacheKeys:
    def test_two_queries_sharing_a_context_both_see_in_window_changes(self, world):
        """Regression: a context re-created for query A must not be mistaken
        for an unchanged context by query B sharing its cache key."""
        from repro.trajectories.trajectory import TrajectorySample, UncertainTrajectory

        monitor = ContinuousMonitor(world.mod)
        events = []
        monitor.subscribe(events.append)
        query_id = world.query_ids[0]
        a = monitor.register(query_id, sliding=10.0, key="A")
        b = monitor.register(query_id, sliding=10.0, variant="always", key="B")
        initial = {k: monitor.answers(k) for k in ("A", "B")}

        # Park another vehicle on the query's own path: an in-window change.
        query = world.mod.get(query_id)
        shadow = next(
            oid for oid in world.mod.object_ids if oid != query_id
        )
        moved = UncertainTrajectory(
            shadow,
            [TrajectorySample(s.x, s.y, s.t) for s in query.samples],
            world.mod.get(shadow).radius,
        )
        report = monitor.apply(trajectories=[moved])
        assert set(report.affected_queries) == {"A", "B"}
        replayed = replay_deltas(events, initial=initial)
        assert_matches_oracle(monitor, replayed)


class TestRegistrationAndSubscriptions:
    def test_register_validates_inputs(self, world):
        monitor = ContinuousMonitor(world.mod)
        with pytest.raises(KeyError):
            monitor.register("ghost")
        with pytest.raises(ValueError, match="unknown variant"):
            monitor.register(world.query_ids[0], variant="sometimes")
        with pytest.raises(ValueError, match="fraction"):
            monitor.register(world.query_ids[0], variant="fraction")
        with pytest.raises(ValueError, match="not both"):
            monitor.register(world.query_ids[0], window=(0.0, 5.0), sliding=5.0)
        monitor.register(world.query_ids[0], key="mine")
        with pytest.raises(KeyError, match="already registered"):
            monitor.register(world.query_ids[1], key="mine")

    def test_unregister_stops_tracking(self, world):
        monitor = ContinuousMonitor(world.mod)
        standing = monitor.register(world.query_ids[0], sliding=10.0)
        monitor.unregister(standing.key)
        assert monitor.standing_queries == []
        with pytest.raises(KeyError):
            monitor.answers(standing.key)

    def test_default_keys_stay_unique_after_unregister(self, world):
        """Regression: auto keys must not collide with surviving queries."""
        monitor = ContinuousMonitor(world.mod)
        first = monitor.register(world.query_ids[0])
        second = monitor.register(world.query_ids[1])
        monitor.unregister(first.key)
        third = monitor.register(world.query_ids[2])
        assert third.key not in (first.key, second.key)

    def test_per_query_subscription_filters_events(self, world):
        monitor = ContinuousMonitor(world.mod)
        only_second = []
        monitor.subscribe(only_second.append, query_key="second")
        monitor.register(world.query_ids[0], key="first")
        monitor.register(world.query_ids[1], key="second")
        assert only_second
        assert all(event.query_key == "second" for event in only_second)

    def test_unsubscribe_stops_delivery(self, world):
        monitor = ContinuousMonitor(world.mod)
        received = []
        unsubscribe = monitor.subscribe(received.append)
        monitor.register(world.query_ids[0], key="a")
        seen = len(received)
        assert seen
        unsubscribe()
        monitor.register(world.query_ids[1], key="b")
        assert len(received) == seen

    def test_empty_mod_is_rejected(self):
        from repro.trajectories.mod import MovingObjectsDatabase

        with pytest.raises(ValueError, match="non-empty"):
            ContinuousMonitor(MovingObjectsDatabase())

    def test_failed_initial_evaluation_rolls_back_registration(self, world):
        """Regression: a failing register() must not poison later apply()s."""
        from repro.trajectories.mod import MovingObjectsDatabase

        lonely = MovingObjectsDatabase([world.mod.get(world.query_ids[0])])
        monitor = ContinuousMonitor(lonely)
        with pytest.raises(ValueError):
            monitor.register(world.query_ids[0], sliding=10.0)
        assert monitor.standing_queries == []
        monitor.apply()  # must not re-raise the registration failure

    def test_removed_query_trajectory_goes_dormant_and_revives(self, world):
        """Regression: removing a query's object must not crash apply()."""
        monitor = build_monitor(world, sliding=10.0)
        key = monitor.standing_queries[0].key
        query_id = monitor.standing_queries[0].query_id
        assert monitor.answers(key), "needs a non-empty answer to drop"
        removed = world.mod.remove(query_id)
        report = monitor.apply()
        assert key in report.affected_queries
        assert monitor.resolve_window(key) is None
        assert monitor.answers(key) == {}
        world.mod.add(removed)
        monitor.apply()
        assert monitor.answers(key), "the query revives when the object returns"


class TestWindows:
    def test_sliding_window_trails_the_common_horizon(self, world):
        monitor = build_monitor(world, sliding=10.0)
        key = monitor.standing_queries[0].key
        lo, hi = monitor.resolve_window(key)
        assert hi - lo == pytest.approx(10.0)
        for object_id, reports in world.batches[0].items():
            monitor.ingest(object_id, reports)
        monitor.apply()
        new_lo, new_hi = monitor.resolve_window(key)
        assert new_hi > hi
        assert new_hi - new_lo == pytest.approx(10.0)

    def test_superseded_sliding_windows_do_not_accumulate_in_the_cache(self, world):
        monitor = build_monitor(world, sliding=10.0)
        for batch in world.batches:
            for object_id, reports in batch.items():
                monitor.ingest(object_id, reports)
            monitor.apply()
        # One live context per standing query; the advanced-past windows'
        # entries were discarded rather than left to age out of the LRU.
        assert monitor.engine.cache_info().size == len(monitor.standing_queries)

    def test_fixed_window_outside_span_is_inactive(self, world):
        monitor = ContinuousMonitor(world.mod)
        span = world.mod.common_time_span()
        standing = monitor.register(
            world.query_ids[0], window=(span[1] + 100.0, span[1] + 200.0)
        )
        assert monitor.resolve_window(standing.key) is None
        assert monitor.answers(standing.key) == {}
