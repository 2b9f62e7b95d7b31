"""Tests for circle-circle geometry (lens areas)."""

import math

import pytest

from repro.geometry.circle_ops import circle_intersection_area
from repro.geometry.point import Point2D


class TestCircleIntersectionArea:
    def test_disjoint_circles_have_zero_area(self):
        area = circle_intersection_area(Point2D(0, 0), 1.0, Point2D(5, 0), 1.0)
        assert area == 0.0

    def test_contained_circle_gives_smaller_circle_area(self):
        area = circle_intersection_area(Point2D(0, 0), 3.0, Point2D(0.5, 0), 1.0)
        assert area == pytest.approx(math.pi)

    def test_coincident_circles_give_full_area(self):
        area = circle_intersection_area(Point2D(0, 0), 2.0, Point2D(0, 0), 2.0)
        assert area == pytest.approx(4.0 * math.pi)

    def test_half_overlap_is_symmetric(self):
        area_ab = circle_intersection_area(Point2D(0, 0), 1.0, Point2D(1, 0), 1.0)
        area_ba = circle_intersection_area(Point2D(1, 0), 1.0, Point2D(0, 0), 1.0)
        assert area_ab == pytest.approx(area_ba)

    def test_unit_circles_at_unit_distance_known_value(self):
        # Standard closed form: 2·acos(1/2) − (1/2)·sqrt(3) for r=1, d=1.
        expected = 2.0 * math.acos(0.5) - 0.5 * math.sqrt(3.0)
        area = circle_intersection_area(Point2D(0, 0), 1.0, Point2D(1, 0), 1.0)
        assert area == pytest.approx(expected, rel=1e-9)

    def test_tangent_circles_have_zero_area(self):
        area = circle_intersection_area(Point2D(0, 0), 1.0, Point2D(2, 0), 1.0)
        assert area == 0.0

    def test_zero_radius_gives_zero_area(self):
        assert circle_intersection_area(Point2D(0, 0), 0.0, Point2D(0, 0), 1.0) == 0.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            circle_intersection_area(Point2D(0, 0), -1.0, Point2D(0, 0), 1.0)

    def test_area_monotone_in_distance(self):
        distances = [0.0, 0.5, 1.0, 1.5, 1.9]
        areas = [
            circle_intersection_area(Point2D(0, 0), 1.0, Point2D(d, 0), 1.0)
            for d in distances
        ]
        assert all(a >= b - 1e-12 for a, b in zip(areas, areas[1:]))
