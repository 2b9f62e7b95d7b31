"""Integration tests: full query pipeline cross-checked against ground truth."""

import numpy as np
import pytest

from repro.core.queries import QueryContext
from repro.core.ranking import monte_carlo_ranking, nn_probability_snapshot
from repro.trajectories.mod import MovingObjectsDatabase
from repro.workloads.random_waypoint import RandomWaypointConfig, generate_trajectories

from ..conftest import straight_trajectory


@pytest.fixture(scope="module")
def workload_mod() -> MovingObjectsDatabase:
    config = RandomWaypointConfig(num_objects=24, uncertainty_radius=0.5, seed=33)
    return MovingObjectsDatabase(generate_trajectories(config))


@pytest.fixture(scope="module")
def workload_query(workload_mod) -> QueryContext:
    return QueryContext.from_mod(workload_mod, 0, 0.0, 60.0)


class TestPipelineConsistency:
    def test_envelope_owner_matches_true_nearest_candidate(self, workload_mod, workload_query):
        """At sampled times the rank-1 answer is the closest expected location."""
        query_trajectory = workload_mod.get(0)
        for t in np.linspace(1.0, 59.0, 7):
            ranking = workload_query.ranking_at(float(t), 1)
            distances = {
                trajectory.object_id: query_trajectory.position_at(float(t)).distance_to(
                    trajectory.position_at(float(t))
                )
                for trajectory in workload_mod
                if trajectory.object_id != 0
            }
            true_nearest = min(distances, key=distances.get)
            assert ranking[0] == true_nearest

    def test_tree_and_context_rankings_agree(self, workload_query):
        tree = workload_query.ipac_tree(max_levels=3)
        for t in np.linspace(1.0, 59.0, 7):
            tree_ranking = tree.ranking_at(float(t))[:2]
            context_ranking = workload_query.ranking_at(float(t), 2)
            assert tree_ranking == context_ranking[: len(tree_ranking)]

    def test_survivors_cover_all_probability_bearing_objects(self, workload_mod, workload_query):
        """Objects with visible NN probability at sampled times must survive pruning."""
        survivors = set(workload_query.uq31_all_sometime())
        for t in np.linspace(5.0, 55.0, 4):
            snapshot = nn_probability_snapshot(workload_mod, 0, float(t), grid_size=128)
            for object_id, probability in snapshot.items():
                if probability > 1e-3:
                    assert object_id in survivors

    def test_rank1_sometime_objects_win_monte_carlo_somewhere(self, workload_mod, workload_query, rng):
        """Each rank-1 object is the Monte-Carlo favourite somewhere in its interval."""
        tree = workload_query.ipac_tree(max_levels=1)
        for node in list(tree.walk())[:4]:
            midpoint = (node.t_start + node.t_end) / 2.0
            sampled = monte_carlo_ranking(workload_mod, 0, midpoint, samples=4000, rng=rng)
            assert sampled[0] == node.object_id


class TestHandCraftedGroundTruth:
    def test_crossing_scenario_answer_structure(self):
        """Two candidates exchange the NN role exactly once, mid-window."""
        mod = MovingObjectsDatabase(
            [
                straight_trajectory("q", (0.0, 0.0), (30.0, 0.0)),
                straight_trajectory("early", (0.0, 1.0), (30.0, 12.0)),
                straight_trajectory("late", (0.0, 12.0), (30.0, 1.0)),
            ]
        )
        query = QueryContext.from_mod(mod, "q", 0.0, 60.0)
        assert query.ranking_at(1.0, 1) == ["early"]
        assert query.ranking_at(59.0, 1) == ["late"]
        tree = query.ipac_tree(max_levels=1)
        owners = [node.object_id for node in tree.nodes_at_level(1)]
        assert owners == ["early", "late"]

    def test_symmetric_candidates_share_the_window(self):
        """Symmetric parallel candidates each own rank-1 throughout at rank ≤ 2."""
        mod = MovingObjectsDatabase(
            [
                straight_trajectory("q", (0.0, 0.0), (30.0, 0.0)),
                straight_trajectory("above", (0.0, 1.5), (30.0, 1.5)),
                straight_trajectory("below", (0.0, -1.5), (30.0, -1.5)),
            ]
        )
        query = QueryContext.from_mod(mod, "q", 0.0, 60.0)
        assert query.uq22_rank_always("above", 2)
        assert query.uq22_rank_always("below", 2)
        assert set(query.uq32_all_always()) == {"above", "below"}

    def test_fleet_scenario_end_to_end(self):
        from repro.workloads.scenarios import convoy_with_stragglers

        mod = convoy_with_stragglers(convoy_size=4, straggler_count=4)
        query = QueryContext.from_mod(mod, "convoy-1", 0.0, 60.0)
        neighbors = query.uq41_all_rank_sometime(2)
        # The adjacent convoy members must be among the top-2 candidates.
        assert any(str(object_id).startswith("convoy-") for object_id in neighbors)
        tree = query.ipac_tree(max_levels=2)
        assert tree.size() >= len(tree.nodes_at_level(1))
