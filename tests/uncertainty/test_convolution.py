"""Tests for the convolution transformation (Section 3.1)."""

import numpy as np
import pytest

from repro.uncertainty.cone import ConePDF
from repro.uncertainty.convolution import (
    convolve_radial_pdfs,
    difference_pdf,
    uniform_difference_pdf,
)
from repro.uncertainty.gaussian import TruncatedGaussianPDF
from repro.uncertainty.pdf import CrispPDF, TabulatedRadialPDF
from repro.uncertainty.uniform import UniformDiskPDF


class TestUniformDifferencePDF:
    def test_support_is_twice_the_radius(self):
        diff = uniform_difference_pdf(1.0)
        assert diff.support_radius == pytest.approx(2.0)

    def test_mass_is_one(self):
        diff = uniform_difference_pdf(1.0)
        assert diff.total_mass() == pytest.approx(1.0, abs=1e-3)

    def test_density_decreases_with_radius(self):
        diff = uniform_difference_pdf(1.0)
        values = [diff.density(r) for r in np.linspace(0.0, 2.0, 11)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_close_to_paper_cone_approximation(self):
        # The paper treats uniform⊛uniform as a cone; the exact profile is the
        # normalized lens area.  They agree at the endpoints and stay within
        # a modest relative band in between.
        exact = uniform_difference_pdf(1.0)
        cone = ConePDF(1.0)
        assert exact.density(0.0) == pytest.approx(cone.density(0.0), rel=0.35)
        assert exact.density(1.9) == pytest.approx(cone.density(1.9), abs=0.05)
        # Both integrate to one, so the cdfs must also be close.
        for r in (0.5, 1.0, 1.5):
            assert exact.radial_cdf(r) == pytest.approx(cone.radial_cdf(r), abs=0.1)

    def test_matches_monte_carlo_difference(self, rng):
        exact = uniform_difference_pdf(1.0)
        samples_a = UniformDiskPDF(1.0).sample(rng, 20000)
        samples_b = UniformDiskPDF(1.0).sample(rng, 20000)
        diffs = samples_a - samples_b
        radii = np.hypot(diffs[:, 0], diffs[:, 1])
        assert np.mean(radii <= 1.0) == pytest.approx(exact.radial_cdf(1.0), abs=0.02)


class TestNumericConvolution:
    def test_crisp_operands_short_circuit(self):
        uniform = UniformDiskPDF(1.0)
        assert convolve_radial_pdfs(CrispPDF(), uniform) is uniform
        assert convolve_radial_pdfs(uniform, CrispPDF()) is uniform

    def test_support_is_sum_of_supports(self):
        result = convolve_radial_pdfs(
            UniformDiskPDF(1.0), UniformDiskPDF(0.5), samples=64, angular_samples=64
        )
        assert result.support_radius == pytest.approx(1.5)

    def test_result_is_normalized(self):
        result = convolve_radial_pdfs(
            UniformDiskPDF(1.0), UniformDiskPDF(1.0), samples=64, angular_samples=64
        )
        assert result.total_mass() == pytest.approx(1.0, abs=1e-2)

    def test_numeric_uniform_convolution_matches_exact(self):
        numeric = convolve_radial_pdfs(
            UniformDiskPDF(1.0), UniformDiskPDF(1.0), samples=96, angular_samples=128
        )
        exact = uniform_difference_pdf(1.0)
        for r in (0.2, 0.8, 1.4):
            assert numeric.density(r) == pytest.approx(exact.density(r), rel=0.1, abs=0.01)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            convolve_radial_pdfs(UniformDiskPDF(1.0), UniformDiskPDF(1.0), samples=4)


class TestDifferencePDF:
    def test_crisp_query_returns_object_pdf(self):
        uniform = UniformDiskPDF(1.0)
        assert difference_pdf(uniform, CrispPDF()) is uniform

    def test_equal_uniform_disks_use_exact_profile(self):
        result = difference_pdf(UniformDiskPDF(1.0), UniformDiskPDF(1.0))
        assert isinstance(result, TabulatedRadialPDF)
        assert result.support_radius == pytest.approx(2.0)

    def test_mixed_families_fall_back_to_numeric(self):
        result = difference_pdf(
            UniformDiskPDF(1.0), TruncatedGaussianPDF(1.0), samples=48
        )
        assert result.support_radius == pytest.approx(2.0)
        assert result.total_mass() == pytest.approx(1.0, abs=5e-2)
