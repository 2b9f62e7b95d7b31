"""Tests for difference (relative) trajectories and their distance functions."""

import numpy as np
import pytest

from repro.reference.definition import expected_distance_at, relative_position_at
from repro.trajectories.difference import (
    difference_distance_function,
    difference_distance_functions,
)
from repro.trajectories.trajectory import Trajectory

from ..conftest import straight_trajectory


class TestDifferenceDistanceFunction:
    def test_matches_sampled_expected_distances_single_segment(self):
        query = straight_trajectory("q", (0.0, 0.0), (30.0, 0.0))
        other = straight_trajectory("a", (0.0, 5.0), (30.0, -5.0))
        function = difference_distance_function(other, query, 0.0, 60.0)
        for t in np.linspace(0.0, 60.0, 31):
            expected = expected_distance_at(other, query, float(t))
            assert function.value(float(t)) == pytest.approx(expected, rel=1e-7, abs=1e-6)

    def test_matches_sampled_expected_distances_multi_segment(self):
        query = Trajectory("q", [(0, 0, 0.0), (10, 0, 30.0), (10, 10, 60.0)])
        other = Trajectory("a", [(5, 5, 0.0), (5, -5, 20.0), (0, -5, 60.0)])
        function = difference_distance_function(other, query, 0.0, 60.0)
        for t in np.linspace(0.0, 60.0, 61):
            expected = expected_distance_at(other, query, float(t))
            assert function.value(float(t)) == pytest.approx(expected, rel=1e-7, abs=1e-6)

    def test_breakpoints_are_union_of_sample_times(self):
        query = Trajectory("q", [(0, 0, 0.0), (10, 0, 30.0), (10, 10, 60.0)])
        other = Trajectory("a", [(5, 5, 0.0), (5, -5, 20.0), (0, -5, 60.0)])
        function = difference_distance_function(other, query, 0.0, 60.0)
        assert set(function.breakpoints(0.0, 60.0)) == {20.0, 30.0}

    def test_restricting_the_window(self):
        query = straight_trajectory("q", (0.0, 0.0), (30.0, 0.0))
        other = straight_trajectory("a", (0.0, 5.0), (30.0, 5.0))
        function = difference_distance_function(other, query, 10.0, 50.0)
        assert function.t_start == 10.0
        assert function.t_end == 50.0

    def test_uncovered_window_raises(self):
        query = straight_trajectory("q", (0.0, 0.0), (30.0, 0.0), t_hi=30.0)
        other = straight_trajectory("a", (0.0, 5.0), (30.0, 5.0), t_hi=60.0)
        with pytest.raises(ValueError):
            difference_distance_function(other, query, 0.0, 60.0)
        with pytest.raises(ValueError):
            difference_distance_function(query, other, 0.0, 60.0)

    def test_empty_window_rejected(self):
        query = straight_trajectory("q", (0.0, 0.0), (30.0, 0.0))
        other = straight_trajectory("a", (0.0, 5.0), (30.0, 5.0))
        with pytest.raises(ValueError):
            difference_distance_function(other, query, 10.0, 5.0)

    def test_object_id_is_preserved(self):
        query = straight_trajectory("q", (0.0, 0.0), (30.0, 0.0))
        other = straight_trajectory("a", (0.0, 5.0), (30.0, 5.0))
        function = difference_distance_function(other, query, 0.0, 60.0)
        assert function.object_id == "a"


class TestBatchConstruction:
    def test_query_is_skipped_by_default(self):
        query = straight_trajectory("q", (0.0, 0.0), (30.0, 0.0))
        others = [
            query,
            straight_trajectory("a", (0.0, 5.0), (30.0, 5.0)),
            straight_trajectory("b", (0.0, -5.0), (30.0, -5.0)),
        ]
        functions = difference_distance_functions(others, query, 0.0, 60.0)
        assert sorted(f.object_id for f in functions) == ["a", "b"]

    def test_query_can_be_kept_explicitly(self):
        query = straight_trajectory("q", (0.0, 0.0), (30.0, 0.0))
        functions = difference_distance_functions([query], query, 0.0, 60.0, skip_query=False)
        assert len(functions) == 1
        assert functions[0].value(30.0) == pytest.approx(0.0)


class TestRelativePosition:
    def test_relative_position_at(self):
        query = straight_trajectory("q", (0.0, 0.0), (30.0, 0.0))
        other = straight_trajectory("a", (0.0, 5.0), (30.0, 5.0))
        assert relative_position_at(other, query, 30.0) == pytest.approx((0.0, 5.0))

    def test_expected_distance_at(self):
        query = straight_trajectory("q", (0.0, 0.0), (30.0, 0.0))
        other = straight_trajectory("a", (0.0, 3.0), (30.0, 3.0))
        assert expected_distance_at(other, query, 17.0) == pytest.approx(3.0)
