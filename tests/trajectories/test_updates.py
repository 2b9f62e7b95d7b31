"""Tests for the alternative motion models (location updates, dead reckoning)."""

import math
import random

import pytest

from repro.trajectories.updates import (
    LocationUpdate,
    VelocityUpdate,
    dead_reckoning_positions,
    ellipse_uncertainty_bound,
    max_ellipse_uncertainty,
    trajectory_from_dead_reckoning,
    trajectory_from_updates,
)


class TestEllipseBound:
    def test_zero_at_update_times(self):
        first = LocationUpdate(0.0, 0.0, 0.0)
        second = LocationUpdate(4.0, 0.0, 10.0)
        assert ellipse_uncertainty_bound(first, second, 1.0, 0.0) == pytest.approx(0.0)
        assert ellipse_uncertainty_bound(first, second, 1.0, 10.0) == pytest.approx(0.0)

    def test_positive_between_updates_when_speed_has_slack(self):
        first = LocationUpdate(0.0, 0.0, 0.0)
        second = LocationUpdate(4.0, 0.0, 10.0)  # average speed 0.4 < max 1.0
        middle = ellipse_uncertainty_bound(first, second, 1.0, 5.0)
        assert middle > 0.0
        # The bound can never exceed the forward reachability radius.
        assert middle <= 5.0

    def test_zero_slack_when_moving_at_max_speed(self):
        first = LocationUpdate(0.0, 0.0, 0.0)
        second = LocationUpdate(10.0, 0.0, 10.0)  # exactly max speed
        assert ellipse_uncertainty_bound(first, second, 1.0, 5.0) == pytest.approx(0.0, abs=1e-9)

    def test_unreachable_updates_rejected(self):
        first = LocationUpdate(0.0, 0.0, 0.0)
        second = LocationUpdate(100.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            ellipse_uncertainty_bound(first, second, 1.0, 5.0)

    def test_time_outside_interval_rejected(self):
        first = LocationUpdate(0.0, 0.0, 0.0)
        second = LocationUpdate(1.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            ellipse_uncertainty_bound(first, second, 1.0, 11.0)

    def test_max_over_interval(self):
        first = LocationUpdate(0.0, 0.0, 0.0)
        second = LocationUpdate(4.0, 0.0, 10.0)
        worst = max_ellipse_uncertainty(first, second, 1.0)
        mid = ellipse_uncertainty_bound(first, second, 1.0, 5.0)
        assert worst >= mid - 1e-9

        def sampled(first, second, speed, samples):
            return max(
                ellipse_uncertainty_bound(
                    first, second, speed,
                    first.t + (second.t - first.t) * index / (samples - 1),
                )
                for index in range(samples)
            )

        # The closed form is the supremum: a dense maximum meets it, and the
        # old 33-point grid never exceeds it beyond rounding.
        rng = random.Random(25)
        for _ in range(25):
            first = LocationUpdate(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(0, 10))
            dt, speed = rng.uniform(0.01, 20.0), rng.uniform(0.1, 5.0)
            angle, reach = rng.uniform(0.0, 6.283), rng.uniform(0.0, 0.999) * speed * dt
            second = LocationUpdate(
                first.x + reach * math.cos(angle), first.y + reach * math.sin(angle), first.t + dt
            )
            closed = max_ellipse_uncertainty(first, second, speed)
            assert closed == pytest.approx(sampled(first, second, speed, 10_001), rel=1e-9)
            assert closed >= sampled(first, second, speed, 33) * (1.0 - 1e-12)


class TestTrajectoryFromUpdates:
    def test_expected_path_interpolates_reports(self):
        updates = [
            LocationUpdate(0.0, 0.0, 0.0),
            LocationUpdate(4.0, 0.0, 10.0),
            LocationUpdate(4.0, 4.0, 20.0),
        ]
        trajectory = trajectory_from_updates("u", updates, max_speed=1.0)
        assert trajectory.position_at(5.0).as_tuple() == pytest.approx((2.0, 0.0))
        assert trajectory.position_at(15.0).as_tuple() == pytest.approx((4.0, 2.0))

    def test_radius_covers_the_worst_ellipse(self):
        updates = [LocationUpdate(0.0, 0.0, 0.0), LocationUpdate(4.0, 0.0, 10.0)]
        trajectory = trajectory_from_updates("u", updates, max_speed=1.0)
        assert trajectory.radius >= max_ellipse_uncertainty(updates[0], updates[1], 1.0) - 1e-9

    def test_needs_two_updates(self):
        with pytest.raises(ValueError):
            trajectory_from_updates("u", [LocationUpdate(0.0, 0.0, 0.0)], 1.0)

    def test_minimum_radius_floor(self):
        updates = [LocationUpdate(0.0, 0.0, 0.0), LocationUpdate(10.0, 0.0, 10.0)]
        trajectory = trajectory_from_updates("u", updates, max_speed=1.0, minimum_radius=0.05)
        assert trajectory.radius == pytest.approx(0.05)


class TestDeadReckoning:
    def test_positions_follow_latest_update(self):
        updates = [
            VelocityUpdate(0.0, 0.0, 0.0, 1.0, 0.0),
            VelocityUpdate(10.0, 2.0, 10.0, 0.0, 1.0),
        ]
        samples = dead_reckoning_positions(updates, [5.0, 12.0])
        assert (samples[0].x, samples[0].y) == pytest.approx((5.0, 0.0))
        assert (samples[1].x, samples[1].y) == pytest.approx((10.0, 4.0))

    def test_time_before_first_update_rejected(self):
        updates = [VelocityUpdate(0.0, 0.0, 5.0, 1.0, 0.0)]
        with pytest.raises(ValueError):
            dead_reckoning_positions(updates, [0.0])

    def test_trajectory_passes_through_reports_and_extrapolates(self):
        updates = [
            VelocityUpdate(0.0, 0.0, 0.0, 1.0, 0.0),
            VelocityUpdate(8.0, 1.0, 10.0, 0.0, 1.0),
        ]
        trajectory = trajectory_from_dead_reckoning("d", updates, d_max=0.5, end_time=20.0)
        assert trajectory.radius == pytest.approx(0.5)
        assert trajectory.position_at(0.0).as_tuple() == pytest.approx((0.0, 0.0))
        assert trajectory.position_at(10.0).as_tuple() == pytest.approx((8.0, 1.0))
        # After the last report the expected path follows the reported velocity.
        assert trajectory.position_at(20.0).as_tuple() == pytest.approx((8.0, 11.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            trajectory_from_dead_reckoning("d", [], d_max=0.5)
        with pytest.raises(ValueError):
            trajectory_from_dead_reckoning(
                "d", [VelocityUpdate(0, 0, 0, 1, 0)], d_max=0.0
            )
        with pytest.raises(ValueError):
            trajectory_from_dead_reckoning(
                "d", [VelocityUpdate(0, 0, 5.0, 1, 0)], d_max=0.5, end_time=5.0
            )

    def test_resulting_trajectory_is_queryable(self):
        from repro.core.queries import QueryContext
        from repro.trajectories.mod import MovingObjectsDatabase

        streams = {
            "a": [VelocityUpdate(0.0, 0.0, 0.0, 0.5, 0.0)],
            "b": [VelocityUpdate(0.0, 1.0, 0.0, 0.5, 0.0)],
            "c": [VelocityUpdate(0.0, 10.0, 0.0, 0.5, 0.0)],
        }
        mod = MovingObjectsDatabase(
            trajectory_from_dead_reckoning(name, updates, d_max=0.4, end_time=30.0)
            for name, updates in streams.items()
        )
        context = QueryContext.from_mod(mod, "a", 0.0, 30.0)
        assert context.uq31_all_sometime() == ["b"]
