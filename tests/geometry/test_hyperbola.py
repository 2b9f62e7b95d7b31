"""Tests for hyperbolic distance functions and their piecewise containers."""

import math

import numpy as np
import pytest

from repro.geometry.envelope.hyperbola import (
    DistanceFunction,
    Hyperbola,
    HyperbolaPiece,
)
from repro.geometry.envelope.quadratic import crossing_times


class TestHyperbola:
    def test_value_matches_relative_motion(self):
        # Object at (3, 4) at t=0 moving with velocity (1, 0) relative to the origin.
        curve = Hyperbola.from_relative_motion(3.0, 4.0, 1.0, 0.0, 0.0)
        for t in np.linspace(0.0, 5.0, 11):
            expected = math.hypot(3.0 + t, 4.0)
            assert curve.value(t) == pytest.approx(expected, rel=1e-12)

    def test_value_clamps_negative_noise(self):
        curve = Hyperbola(1.0, 0.0, -1e-18)
        assert curve.value(0.0) == 0.0

    def test_vertex_time_of_approaching_object(self):
        # Starts at (−5, 2) with velocity (1, 0): closest approach at t = 5.
        curve = Hyperbola.from_relative_motion(-5.0, 2.0, 1.0, 0.0, 0.0)
        assert curve.vertex_time == pytest.approx(5.0)

    def test_vertex_time_constant_distance_is_none(self):
        curve = Hyperbola.from_relative_motion(3.0, 4.0, 0.0, 0.0, 0.0)
        assert curve.vertex_time is None

    def test_intersections_with_two_crossings(self):
        moving_away = Hyperbola.from_relative_motion(1.0, 0.0, 1.0, 0.0, 0.0)
        moving_closer = Hyperbola.from_relative_motion(9.0, 0.0, -1.0, 0.0, 0.0)
        crossings = crossing_times(moving_away, moving_closer, 0.0, 10.0)
        assert len(crossings) >= 1
        for t in crossings:
            assert moving_away.value(t) == pytest.approx(moving_closer.value(t), rel=1e-9)

    def test_parallel_functions_never_cross(self):
        a = Hyperbola.from_relative_motion(1.0, 0.0, 0.0, 0.0, 0.0)
        b = Hyperbola.from_relative_motion(2.0, 0.0, 0.0, 0.0, 0.0)
        assert crossing_times(a, b, 0.0, 10.0) == []

    def test_intersections_exclude_window_boundaries(self):
        a = Hyperbola.from_relative_motion(1.0, 0.0, 1.0, 0.0, 0.0)
        b = Hyperbola.from_relative_motion(9.0, 0.0, -1.0, 0.0, 0.0)
        all_crossings = crossing_times(a, b, 0.0, 10.0)
        if all_crossings:
            boundary = all_crossings[0]
            inside_only = crossing_times(a, b, boundary, 10.0)
            assert boundary not in inside_only


class TestHyperbolaPiece:
    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            HyperbolaPiece(5.0, 4.0, Hyperbola(1.0, 0.0, 0.0))

    def test_contains(self):
        piece = HyperbolaPiece(0.0, 5.0, Hyperbola(1.0, 0.0, 0.0))
        assert piece.contains(2.5)
        assert not piece.contains(6.0)


class TestDistanceFunction:
    def make_two_piece(self) -> DistanceFunction:
        first = Hyperbola.from_relative_motion(5.0, 0.0, -1.0, 0.0, 0.0)
        second = Hyperbola.from_relative_motion(0.0, 0.0, 1.0, 0.0, 5.0)
        return DistanceFunction(
            "obj",
            [HyperbolaPiece(0.0, 5.0, first), HyperbolaPiece(5.0, 10.0, second)],
        )

    def test_requires_at_least_one_piece(self):
        with pytest.raises(ValueError):
            DistanceFunction("x", [])

    def test_rejects_overlapping_pieces(self):
        curve = Hyperbola(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            DistanceFunction(
                "x",
                [HyperbolaPiece(0.0, 6.0, curve), HyperbolaPiece(5.0, 10.0, curve)],
            )

    def test_value_dispatches_to_correct_piece(self):
        function = self.make_two_piece()
        assert function.value(2.0) == pytest.approx(3.0)
        assert function.value(7.0) == pytest.approx(2.0)

    def test_piece_at_boundary_belongs_to_one_piece(self):
        function = self.make_two_piece()
        piece = function.piece_at(5.0)
        assert piece.contains(5.0)

    def test_value_outside_span_raises(self):
        function = self.make_two_piece()
        with pytest.raises(ValueError):
            function.value(11.0)

    def test_breakpoints(self):
        function = self.make_two_piece()
        assert function.breakpoints(0.0, 10.0) == [5.0]
        assert function.breakpoints(6.0, 10.0) == []

    def test_intersection_times_against_constant(self):
        function = self.make_two_piece()
        constant = DistanceFunction.single_segment("c", 2.5, 0.0, 0.0, 0.0, 0.0, 10.0)
        crossings = function.intersection_times(constant, 0.0, 10.0)
        assert len(crossings) == 2
        for t in crossings:
            assert function.value(t) == pytest.approx(2.5, rel=1e-6)

    def test_single_segment_constructor(self):
        function = DistanceFunction.single_segment("s", 3.0, 4.0, 0.0, 0.0, 1.0, 9.0)
        assert function.object_id == "s"
        assert function.t_start == 1.0
        assert function.t_end == 9.0
        assert function.value(5.0) == pytest.approx(5.0)
