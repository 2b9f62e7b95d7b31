"""Tests for space-time segments."""

import pytest

from repro.geometry.point import Point2D
from repro.geometry.segment import SpaceTimeSegment, euclidean_speed


@pytest.fixture
def east_segment() -> SpaceTimeSegment:
    """Moves from (0,0) to (10,0) between t=0 and t=10 (speed 1)."""
    return SpaceTimeSegment(Point2D(0.0, 0.0), Point2D(10.0, 0.0), 0.0, 10.0)


class TestSegmentBasics:
    def test_reversed_time_rejected(self):
        with pytest.raises(ValueError):
            SpaceTimeSegment(Point2D(0, 0), Point2D(1, 1), 5.0, 4.0)

    def test_duration_and_length(self, east_segment):
        assert east_segment.duration == 10.0
        assert east_segment.length == pytest.approx(10.0)

    def test_velocity_and_speed(self, east_segment):
        assert east_segment.velocity.as_tuple() == pytest.approx((1.0, 0.0))
        assert east_segment.speed == pytest.approx(1.0)

    def test_zero_duration_segment_has_zero_velocity(self):
        still = SpaceTimeSegment(Point2D(1, 2), Point2D(1, 2), 3.0, 3.0)
        assert still.velocity.as_tuple() == (0.0, 0.0)

    def test_contains_time(self, east_segment):
        assert east_segment.contains_time(0.0)
        assert east_segment.contains_time(10.0)
        assert not east_segment.contains_time(10.5)


class TestInterpolation:
    def test_position_at_endpoints(self, east_segment):
        assert east_segment.position_at(0.0).as_tuple() == (0.0, 0.0)
        assert east_segment.position_at(10.0).as_tuple() == (10.0, 0.0)

    def test_position_at_midpoint(self, east_segment):
        assert east_segment.position_at(5.0).as_tuple() == pytest.approx((5.0, 0.0))

    def test_position_outside_raises(self, east_segment):
        with pytest.raises(ValueError):
            east_segment.position_at(11.0)

    def test_position_of_instantaneous_segment(self):
        still = SpaceTimeSegment(Point2D(1, 2), Point2D(1, 2), 3.0, 3.0)
        assert still.position_at(3.0).as_tuple() == (1.0, 2.0)


class TestClippingAndBounds:
    def test_clipped_interior_window(self, east_segment):
        clipped = east_segment.clipped(2.0, 4.0)
        assert clipped.t_start == 2.0
        assert clipped.t_end == 4.0
        assert clipped.start.as_tuple() == pytest.approx((2.0, 0.0))
        assert clipped.end.as_tuple() == pytest.approx((4.0, 0.0))

    def test_clipped_disjoint_window_raises(self, east_segment):
        with pytest.raises(ValueError):
            east_segment.clipped(11.0, 12.0)

    def test_spatial_bounds(self):
        segment = SpaceTimeSegment(Point2D(3, -1), Point2D(-2, 4), 0.0, 1.0)
        assert segment.spatial_bounds() == (-2, -1, 3, 4)


class TestDistances:
    def test_min_distance_to_point_on_track(self, east_segment):
        assert east_segment.min_distance_to_point(Point2D(5.0, 0.0)) == pytest.approx(0.0)

    def test_min_distance_to_point_off_track(self, east_segment):
        assert east_segment.min_distance_to_point(Point2D(5.0, 3.0)) == pytest.approx(3.0)

    def test_min_distance_beyond_endpoint(self, east_segment):
        assert east_segment.min_distance_to_point(Point2D(13.0, 4.0)) == pytest.approx(5.0)

    def test_distance_at_common_time(self, east_segment):
        other = SpaceTimeSegment(Point2D(0.0, 3.0), Point2D(10.0, 3.0), 0.0, 10.0)
        assert east_segment.distance_at(other, 7.0) == pytest.approx(3.0)

    def test_time_overlap(self, east_segment):
        other = SpaceTimeSegment(Point2D(0, 0), Point2D(1, 1), 5.0, 15.0)
        assert east_segment.time_overlap(other) == (5.0, 10.0)

    def test_time_overlap_disjoint(self, east_segment):
        other = SpaceTimeSegment(Point2D(0, 0), Point2D(1, 1), 11.0, 15.0)
        assert east_segment.time_overlap(other) is None


class TestDistanceCoefficients:
    def test_euclidean_speed(self):
        assert euclidean_speed(0.0, 0.0, 3.0, 4.0, 5.0) == pytest.approx(1.0)

    def test_euclidean_speed_requires_positive_duration(self):
        with pytest.raises(ValueError):
            euclidean_speed(0.0, 0.0, 1.0, 1.0, 0.0)
