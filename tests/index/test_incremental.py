"""Incremental maintenance of the R-tree vs bulk rebuilds."""

import numpy as np
import pytest

from repro.index.boxes import Box3D, IndexEntry, segment_boxes
from repro.index.rtree import STRRTree
from repro.workloads.random_waypoint import RandomWaypointConfig, generate_trajectories


@pytest.fixture(scope="module")
def trajectories():
    return generate_trajectories(RandomWaypointConfig(num_objects=40, seed=21))


def probe_grid(index, trajectories, seed=0, probes=60):
    """Corridor probes over random trajectories/distances (deterministic)."""
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(probes):
        query = trajectories[int(rng.integers(len(trajectories)))]
        distance = float(rng.uniform(0.1, 20.0))
        results.append(
            index.query_corridor(query, distance, query.start_time, query.end_time)
        )
    return results


class TestRTreeInsert:
    def test_insert_into_empty_tree(self):
        tree = STRRTree([], leaf_capacity=4)
        entry = IndexEntry(Box3D(0, 0, 0, 1, 1, 1), "x")
        tree.insert_entry(entry)
        assert len(tree) == 1
        assert tree.query_box(Box3D(0.5, 0.5, 0.5, 2, 2, 2)) == {"x"}

    def test_incremental_tree_answers_like_bulk_tree(self, trajectories):
        bulk = STRRTree.from_trajectories(
            trajectories, leaf_capacity=8, max_box_extent=15.0
        )
        tree = STRRTree([], leaf_capacity=8, max_box_extent=15.0)
        for trajectory in trajectories:
            tree.insert_trajectory(trajectory)
        assert len(tree) == len(bulk)
        for expected, actual in zip(
            probe_grid(bulk, trajectories), probe_grid(tree, trajectories)
        ):
            assert expected == actual

    def test_one_by_one_inserts_repack_into_a_multi_level_tree(self):
        # Entries land in the overflow block; each time it outgrows its share
        # the tree repacks, so single inserts still end up under packed levels.
        tree = STRRTree([], leaf_capacity=2)
        for index in range(20):
            tree.insert_entry(
                IndexEntry(
                    Box3D(index, index, 0.0, index + 1, index + 1, 1.0), index
                )
            )
        assert len(tree) == 20
        assert tree.repacks > 0
        assert tree.height >= 3
        assert tree.query_box(Box3D(0, 0, 0, 30, 30, 1)) == set(range(20))


class TestRTreeRemove:
    def test_remove_object_drops_all_its_entries(self, trajectories):
        tree = STRRTree.from_trajectories(
            trajectories, leaf_capacity=8, max_box_extent=15.0
        )
        target = trajectories[0]
        expected = len(segment_boxes(target, max_extent=15.0))
        assert tree.remove_object(target.object_id) == expected
        for found in probe_grid(tree, trajectories):
            assert target.object_id not in found

    def test_remove_then_reinsert_restores_answers(self, trajectories):
        tree = STRRTree.from_trajectories(
            trajectories, leaf_capacity=8, max_box_extent=15.0
        )
        baseline = probe_grid(tree, trajectories)
        for trajectory in trajectories[:10]:
            tree.remove_object(trajectory.object_id)
        for trajectory in trajectories[:10]:
            tree.insert_trajectory(trajectory)
        assert probe_grid(tree, trajectories) == baseline

    def test_removing_every_object_empties_the_tree(self, trajectories):
        tree = STRRTree.from_trajectories(trajectories[:5], leaf_capacity=4)
        for trajectory in trajectories[:5]:
            tree.remove_object(trajectory.object_id)
        assert len(tree) == 0
        assert tree.height == 0
        assert tree.query_box(Box3D(-1e9, -1e9, -1e9, 1e9, 1e9, 1e9)) == set()

    def test_remove_unknown_object_is_a_noop(self, trajectories):
        tree = STRRTree.from_trajectories(trajectories[:5], leaf_capacity=4)
        size = len(tree)
        assert tree.remove_object("ghost") == 0
        assert len(tree) == size


class TestDivergenceBoundedMaintenance:
    """remove/insert with `after=`: only post-divergence boxes are touched."""

    def extend(self, trajectory, extra_minutes=7.0):
        from repro.trajectories.trajectory import TrajectorySample, UncertainTrajectory

        last = trajectory.samples[-1]
        return UncertainTrajectory(
            trajectory.object_id,
            list(trajectory.samples)
            + [TrajectorySample(last.x + 1.0, last.y, last.t + extra_minutes)],
            trajectory.radius,
        )

    def test_rtree_partial_patch_matches_bulk_rebuild(self, trajectories):
        tree = STRRTree.from_trajectories(
            trajectories, leaf_capacity=8, max_box_extent=15.0
        )
        target = trajectories[0]
        extended = self.extend(target)
        removed = tree.remove_object(target.object_id, after=target.end_time)
        assert removed == 0, "a pure extension retires no historical boxes"
        inserted = tree.insert_trajectory(extended, after=target.end_time)
        assert inserted >= 1
        bulk = STRRTree.from_trajectories(
            [extended] + list(trajectories[1:]),
            leaf_capacity=8,
            max_box_extent=15.0,
        )
        assert len(tree) == len(bulk)
        for expected, actual in zip(
            probe_grid(bulk, trajectories, seed=5), probe_grid(tree, trajectories, seed=5)
        ):
            assert expected == actual
