"""Incremental maintenance of the box table (``patch``) vs fresh loads.

The store applies every change to its table with one ``patch`` per revision:
the changed ids' divergence times, and the column store to read their
current boxes from.  Each test mutates a store, patches a table from the
store's changelog, and compares it with a fresh ``mod.build_index("rtree")``.
"""

import numpy as np
import pytest

from repro.reference.boxes import Box3D, segment_boxes
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import TrajectorySample, UncertainTrajectory
from repro.workloads.random_waypoint import RandomWaypointConfig, generate_trajectories

from ..conftest import box_entries, probe_box, probe_corridor, straight_trajectory

EXTENT = 15.0


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
            probe_corridor(index, query, distance, query.start_time, query.end_time)
        )
    return results


def sync(tree, mod, revision):
    """Patch ``tree`` with the store's changes since ``revision``."""
    tree.patch(mod.divergences_since(revision), mod.columnar())
    return mod.revision


def fresh(mod, max_box_extent=EXTENT):
    return mod.build_index("rtree", max_box_extent=max_box_extent)


class TestPatchInsert:
    def test_patch_into_empty_tree(self):
        mod = MovingObjectsDatabase()
        tree = fresh(mod)
        revision = mod.revision
        mod.add(straight_trajectory("x", (0.0, 0.0), (1.0, 1.0), 0.0, 1.0, 0.1))
        sync(tree, mod, revision)
        assert len(tree) == 1
        assert probe_box(tree, Box3D(0.5, 0.5, 0.5, 2, 2, 2)) == {"x"}

    def test_patched_tree_answers_like_bulk_tree(self, trajectories):
        mod = MovingObjectsDatabase()
        tree = fresh(mod)
        revision = mod.revision
        for trajectory in trajectories:
            mod.add(trajectory)
            revision = sync(tree, mod, revision)
        bulk = fresh(mod)
        assert len(tree) == len(bulk)
        for expected, actual in zip(
            probe_grid(bulk, trajectories), probe_grid(tree, trajectories)
        ):
            assert expected == actual

    def test_one_by_one_patches_compact_the_appended_rows(self):
        # Boxes land in the spare block; each time it is full the table
        # compacts, so single additions keep a bounded spare share.
        mod = MovingObjectsDatabase()
        tree = fresh(mod, max_box_extent=None)
        revision = mod.revision
        for index in range(20):
            mod.add(
                straight_trajectory(
                    index, (index, index), (index + 1, index + 1), 0.0, 1.0, 0.1
                )
            )
            revision = sync(tree, mod, revision)
        assert len(tree) == 20
        assert tree.compactions > 0
        assert probe_box(tree, Box3D(0, 0, 0, 30, 30, 1)) == set(range(20))


class TestPatchRemove:
    def test_removal_drops_all_its_entries(self, trajectories):
        mod = MovingObjectsDatabase(trajectories)
        tree = fresh(mod)
        before, revision = len(tree), mod.revision
        target = trajectories[0]
        mod.remove(target.object_id)
        sync(tree, mod, revision)
        assert before - len(tree) == len(segment_boxes(target, max_extent=EXTENT))
        assert len(tree) == len(fresh(mod))
        for found in probe_grid(tree, trajectories):
            assert target.object_id not in found

    def test_remove_then_readd_restores_answers(self, trajectories):
        mod = MovingObjectsDatabase(trajectories)
        tree = fresh(mod)
        baseline = probe_grid(tree, trajectories)
        revision = mod.revision
        for trajectory in trajectories[:10]:
            mod.remove(trajectory.object_id)
        revision = sync(tree, mod, revision)
        mod.add_all(trajectories[:10])
        sync(tree, mod, revision)
        assert probe_grid(tree, trajectories) == baseline

    def test_removing_every_object_empties_the_tree(self, trajectories):
        mod = MovingObjectsDatabase(trajectories[:5])
        tree = fresh(mod, max_box_extent=None)
        revision = mod.revision
        for trajectory in trajectories[:5]:
            mod.remove(trajectory.object_id)
        sync(tree, mod, revision)
        assert len(tree) == len(fresh(mod)) == 0
        assert probe_box(tree, Box3D(-1e9, -1e9, -1e9, 1e9, 1e9, 1e9)) == set()

    def test_patching_an_unknown_object_is_a_noop(self, trajectories):
        mod = MovingObjectsDatabase(trajectories[:5])
        tree = fresh(mod, max_box_extent=None)
        size = len(tree)
        tree.patch({"ghost": None}, mod.columnar())
        assert len(tree) == size


class TestDivergenceBoundedMaintenance:
    """A patch touches only the boxes from each object's divergence time on."""

    def extend(self, trajectory, extra_minutes=7.0):
        last = trajectory.samples[-1]
        return UncertainTrajectory(
            trajectory.object_id,
            list(trajectory.samples)
            + [TrajectorySample(last.x + 1.0, last.y, last.t + extra_minutes)],
            trajectory.radius,
        )

    def test_partial_patch_matches_a_fresh_load(self, trajectories):
        mod = MovingObjectsDatabase(trajectories)
        tree = fresh(mod)
        revision = mod.revision
        target = trajectories[0]
        extended = self.extend(target)
        mod.replace_trajectory(extended)
        assert mod.divergences_since(revision) == {target.object_id: target.end_time}
        sync(tree, mod, revision)
        # A pure extension retires no historical box: the appended rows
        # (listed last) are exactly the new leg's boxes.
        added = len(segment_boxes(extended, max_extent=EXTENT)) - len(
            segment_boxes(target, max_extent=EXTENT)
        )
        assert added >= 1 and len(tree) == len(fresh(MovingObjectsDatabase(trajectories))) + added
        assert tree.compactions == 0
        appended = box_entries(tree.boxes())[-added:]
        assert {entry.object_id for entry in appended} == {target.object_id}
        assert all(entry.box.t_min >= target.end_time for entry in appended)
        bulk = fresh(mod)
        assert len(tree) == len(bulk)
        for expected, actual in zip(
            probe_grid(bulk, trajectories, seed=5), probe_grid(tree, trajectories, seed=5)
        ):
            assert expected == actual
