"""Tests for within-distance profiles and the Rmin/Rmax pruning (Section 2.2)."""

import pytest

from repro.uncertainty.pdf import CrispPDF
from repro.uncertainty.uniform import UniformDiskPDF
from repro.uncertainty.within_distance import (
    WithinDistanceProfile,
    effective_pruning_radius,
    integration_bounds,
    prune_candidates,
    within_distance_matrix,
    within_distance_probability_uncertain_pair,
)


class TestWithinDistanceProfile:
    def test_r_min_and_r_max(self):
        profile = WithinDistanceProfile("a", 5.0, UniformDiskPDF(1.0))
        assert profile.r_min == pytest.approx(4.0)
        assert profile.r_max == pytest.approx(6.0)

    def test_r_min_clamped_at_zero(self):
        profile = WithinDistanceProfile("a", 0.5, UniformDiskPDF(1.0))
        assert profile.r_min == 0.0

    def test_probability_and_density_delegate_to_pdf(self):
        profile = WithinDistanceProfile("a", 3.0, UniformDiskPDF(1.0))
        assert profile.probability(10.0) == 1.0
        assert profile.probability(1.0) == 0.0
        assert profile.density(3.0) > 0.0

    def test_crisp_profile(self):
        profile = WithinDistanceProfile("q", 2.0, CrispPDF())
        assert profile.r_min == profile.r_max == 2.0
        assert profile.probability(1.9) == 0.0
        assert profile.probability(2.1) == 1.0


class TestPruning:
    def make_profiles(self):
        pdf = UniformDiskPDF(1.0)
        return [
            WithinDistanceProfile("near", 2.0, pdf),
            WithinDistanceProfile("mid", 3.5, pdf),
            WithinDistanceProfile("far", 10.0, pdf),
        ]

    def test_far_object_pruned(self):
        survivors = prune_candidates(self.make_profiles())
        ids = [p.object_id for p in survivors]
        assert "far" not in ids
        assert "near" in ids

    def test_survivors_sorted_by_r_min(self):
        survivors = prune_candidates(self.make_profiles())
        r_mins = [p.r_min for p in survivors]
        assert r_mins == sorted(r_mins)

    def test_borderline_object_kept(self):
        # Rmin of "mid" (2.5) is below Rmax of "near" (3.0): keep it.
        survivors = prune_candidates(self.make_profiles())
        assert "mid" in [p.object_id for p in survivors]

    def test_empty_input(self):
        assert prune_candidates([]) == []

    def test_integration_bounds(self):
        lower, upper = integration_bounds(self.make_profiles())
        assert lower == pytest.approx(1.0)  # min Rmin (near: 2 − 1)
        assert upper == pytest.approx(3.0)  # min Rmax (near: 2 + 1)

    def test_integration_bounds_empty_raises(self):
        with pytest.raises(ValueError):
            integration_bounds([])


class TestHelpers:
    def test_within_distance_matrix_shape_and_monotonicity(self):
        import numpy as np

        profiles = [
            WithinDistanceProfile("a", 2.0, UniformDiskPDF(1.0)),
            WithinDistanceProfile("b", 4.0, UniformDiskPDF(1.0)),
        ]
        radii = np.linspace(0.0, 6.0, 13)
        matrix = within_distance_matrix(profiles, radii)
        assert matrix.shape == (2, 13)
        assert np.all(np.diff(matrix, axis=1) >= -1e-12)

    def test_effective_pruning_radius_is_4r_for_equal_uniform(self):
        pdf = UniformDiskPDF(0.5)
        assert effective_pruning_radius(pdf, pdf) == pytest.approx(2.0)  # 4·r = 2

    def test_effective_pruning_radius_with_crisp_query(self):
        assert effective_pruning_radius(UniformDiskPDF(0.5), CrispPDF()) == pytest.approx(1.0)


class TestUncertainPair:
    def test_convolution_matches_monte_carlo(self, rng):
        pdf = UniformDiskPDF(1.0)
        analytic = within_distance_probability_uncertain_pair(pdf, pdf, 2.0, 2.5)
        sampled = within_distance_probability_uncertain_pair(
            pdf, pdf, 2.0, 2.5, monte_carlo_samples=40000, rng=rng
        )
        assert analytic == pytest.approx(sampled, abs=0.02)

    def test_certainly_within(self):
        pdf = UniformDiskPDF(0.5)
        assert within_distance_probability_uncertain_pair(pdf, pdf, 1.0, 5.0) == pytest.approx(1.0)

    def test_certainly_outside(self):
        pdf = UniformDiskPDF(0.5)
        assert within_distance_probability_uncertain_pair(pdf, pdf, 10.0, 2.0) == pytest.approx(0.0)
