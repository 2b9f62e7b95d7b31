"""Tests for the uniform grid index."""

import pytest

from repro.experiments.grid import GridIndex
from repro.reference.boxes import Box3D, segment_boxes
from repro.workloads.random_waypoint import RandomWaypointConfig, generate_trajectories

from ..conftest import straight_trajectory


class TestGridConstruction:
    def test_region_and_cell_validation(self):
        with pytest.raises(ValueError):
            GridIndex(0.0, 0.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            GridIndex(0.0, 0.0, 10.0, 10.0, cells=0)

    def test_covering_factory_contains_all(self):
        trajectories = [
            straight_trajectory("a", (0, 0), (10, 10)),
            straight_trajectory("b", (20, 20), (30, 5)),
        ]
        index = GridIndex.covering(trajectories, cells=8)
        assert len(index) == 2  # one entry per (single-segment) trajectory

    def test_covering_requires_trajectories(self):
        with pytest.raises(ValueError):
            GridIndex.covering([], cells=8)


class TestGridQueries:
    def test_query_box_finds_overlapping_object(self):
        index = GridIndex(0.0, 0.0, 40.0, 40.0, cells=16)
        index.insert_trajectory(straight_trajectory("a", (5, 5), (10, 10)))
        found = index.query_box(Box3D(4.0, 4.0, 0.0, 6.0, 6.0, 60.0))
        assert found == {"a"}

    def test_query_box_excludes_temporally_disjoint(self):
        index = GridIndex(0.0, 0.0, 40.0, 40.0, cells=16)
        index.insert_trajectory(
            straight_trajectory("a", (5, 5), (10, 10), t_lo=0.0, t_hi=10.0)
        )
        found = index.query_box(Box3D(4.0, 4.0, 20.0, 6.0, 6.0, 30.0))
        assert found == set()

    def test_query_box_excludes_spatially_distant(self):
        index = GridIndex(0.0, 0.0, 40.0, 40.0, cells=16)
        index.insert_trajectory(straight_trajectory("a", (5, 5), (10, 10)))
        found = index.query_box(Box3D(30.0, 30.0, 0.0, 35.0, 35.0, 60.0))
        assert found == set()

    def test_matches_brute_force_on_random_workload(self):
        trajectories = generate_trajectories(
            RandomWaypointConfig(num_objects=60, seed=5)
        )
        index = GridIndex.covering(trajectories, cells=16)
        probe = Box3D(10.0, 10.0, 0.0, 20.0, 20.0, 60.0)
        expected = set()
        for trajectory in trajectories:
            for entry in segment_boxes(trajectory):
                if entry.box.intersects(probe):
                    expected.add(trajectory.object_id)
        assert index.query_box(probe) == expected

    def test_out_of_region_trajectory_is_found_in_border_cells(self):
        index = GridIndex(0.0, 0.0, 40.0, 40.0, cells=8)
        index.insert_trajectory(straight_trajectory("inside", (5, 5), (10, 10)))
        index.insert_trajectory(straight_trajectory("far", (1e4, 1e4), (1.1e4, 1.1e4)))
        assert len(index) == 2
        # Registered in the clamped corner cell, so a probe there finds it.
        assert index.query_box(Box3D(1.05e4, 1.05e4, 0.0, 1.06e4, 1.06e4, 60.0)) == {"far"}
        assert index.query_box(Box3D(39.0, 39.0, 0.0, 40.0, 40.0, 60.0)) == set()
        assert index.query_box(Box3D(4.0, 4.0, 0.0, 6.0, 6.0, 60.0)) == {"inside"}

    def test_corridor_query_excludes_query_and_respects_distance(self):
        query = straight_trajectory("q", (0.0, 0.0), (30.0, 0.0))
        near = straight_trajectory("near", (0.0, 2.0), (30.0, 2.0))
        far = straight_trajectory("far", (0.0, 30.0), (30.0, 30.0))
        index = GridIndex.covering([query, near, far], cells=16)
        found = index.query_corridor(query, 5.0, 0.0, 60.0)
        assert "q" not in found
        assert "near" in found
        assert "far" not in found

    def test_corridor_negative_distance_rejected(self):
        query = straight_trajectory("q", (0.0, 0.0), (30.0, 0.0))
        index = GridIndex.covering([query], cells=4)
        with pytest.raises(ValueError):
            index.query_corridor(query, -1.0, 0.0, 60.0)
