"""Tests for instantaneous NN probabilities (Eq. 5 / 6)."""

import numpy as np
import pytest

from repro.uncertainty.nn_probability import (
    monte_carlo_nn_probabilities,
    nn_probabilities,
    probability_mass_deficit,
)
from repro.uncertainty.pdf import CrispPDF
from repro.uncertainty.uniform import UniformDiskPDF
from repro.uncertainty.within_distance import WithinDistanceProfile


def make_profiles(distances, radius=1.0):
    pdf = UniformDiskPDF(radius)
    return [
        WithinDistanceProfile(f"obj-{index}", distance, pdf)
        for index, distance in enumerate(distances)
    ]


class TestNNProbabilities:
    def test_single_candidate_has_probability_one(self):
        results = nn_probabilities(make_profiles([3.0]))
        assert results["obj-0"].exclusive == pytest.approx(1.0)

    def test_clearly_nearer_object_dominates(self):
        results = nn_probabilities(make_profiles([2.0, 8.0]))
        assert results["obj-0"].exclusive > 0.99
        assert results["obj-1"].exclusive == pytest.approx(0.0, abs=1e-6)

    def test_symmetric_objects_split_evenly(self):
        results = nn_probabilities(make_profiles([3.0, 3.0]))
        assert results["obj-0"].exclusive == pytest.approx(
            results["obj-1"].exclusive, abs=1e-6
        )
        assert results["obj-0"].exclusive == pytest.approx(0.5, abs=0.02)

    def test_probabilities_are_valid_and_sum_below_one(self):
        results = nn_probabilities(make_profiles([2.0, 2.5, 3.0, 6.0]))
        total = sum(result.exclusive for result in results.values())
        assert 0.0 < total <= 1.0 + 1e-9
        for result in results.values():
            assert 0.0 <= result.exclusive <= 1.0

    def test_closer_object_has_higher_probability(self):
        results = nn_probabilities(make_profiles([2.0, 2.6, 3.4]))
        assert (
            results["obj-0"].exclusive
            > results["obj-1"].exclusive
            > results["obj-2"].exclusive
        )

    def test_pruned_object_gets_zero(self):
        results = nn_probabilities(make_profiles([2.0, 20.0]))
        assert results["obj-1"].exclusive == 0.0

    def test_joint_term_reduces_deficit(self):
        profiles = make_profiles([2.0, 2.1, 2.2])
        without = nn_probabilities(profiles, include_joint=False)
        with_joint = nn_probabilities(profiles, include_joint=True)
        deficit_without = probability_mass_deficit(without)
        deficit_with = probability_mass_deficit(with_joint, use_total=True)
        assert deficit_without > 0.0
        assert deficit_with < deficit_without

    def test_crisp_profiles_degenerate_tie(self):
        profiles = [
            WithinDistanceProfile("a", 2.0, CrispPDF()),
            WithinDistanceProfile("b", 2.0, CrispPDF()),
        ]
        results = nn_probabilities(profiles)
        assert results["a"].exclusive == pytest.approx(0.5)
        assert results["b"].exclusive == pytest.approx(0.5)

    def test_empty_input(self):
        assert nn_probabilities([]) == {}


class TestRanking:
    def test_rank_matches_distance_order(self):
        results = nn_probabilities(make_profiles([4.0, 2.0, 3.0]))
        assert results["obj-1"].exclusive > results["obj-2"].exclusive
        assert results["obj-2"].exclusive > results["obj-0"].exclusive

    def test_rank_is_stable_for_ties(self):
        results = nn_probabilities(make_profiles([10.0, 10.0]))
        assert results["obj-0"].exclusive == results["obj-1"].exclusive


class TestMonteCarlo:
    def test_agrees_with_numeric_probabilities(self, rng):
        distances = [2.0, 2.5, 4.0]
        profiles = make_profiles(distances)
        numeric = nn_probabilities(profiles, grid_size=512)
        sampled = monte_carlo_nn_probabilities(
            [f"obj-{i}" for i in range(3)],
            np.array([[d, 0.0] for d in distances]),
            [UniformDiskPDF(1.0)] * 3,
            np.array([0.0, 0.0]),
            CrispPDF(),
            samples=40000,
            rng=rng,
        )
        for object_id in sampled:
            assert sampled[object_id] == pytest.approx(
                numeric[object_id].exclusive, abs=0.03
            )

    def test_uncertain_query_probabilities_sum_to_one(self, rng):
        sampled = monte_carlo_nn_probabilities(
            ["a", "b"],
            np.array([[2.0, 0.0], [3.0, 0.0]]),
            [UniformDiskPDF(1.0)] * 2,
            np.array([0.0, 0.0]),
            UniformDiskPDF(1.0),
            samples=5000,
            rng=rng,
        )
        assert sum(sampled.values()) == pytest.approx(1.0)

    def test_input_validation(self, rng):
        with pytest.raises(ValueError):
            monte_carlo_nn_probabilities(
                ["a"],
                np.zeros((2, 2)),
                [UniformDiskPDF(1.0)],
                np.zeros(2),
                CrispPDF(),
                samples=10,
                rng=rng,
            )
