"""Tests for the RadialPDF base machinery, CrispPDF and TabulatedRadialPDF."""

import numpy as np
import pytest

from repro.uncertainty.pdf import CrispPDF, TabulatedRadialPDF
from repro.uncertainty.uniform import UniformDiskPDF


class TestCrispPDF:
    def test_support_radius_is_zero(self):
        assert CrispPDF().support_radius == 0.0

    def test_density_is_undefined(self):
        with pytest.raises(ValueError):
            CrispPDF().density(0.0)

    def test_radial_cdf_is_step(self):
        crisp = CrispPDF()
        assert crisp.radial_cdf(0.0) == 1.0
        assert crisp.radial_cdf(5.0) == 1.0

    def test_within_distance_probability_is_indicator(self):
        crisp = CrispPDF()
        assert crisp.within_distance_probability(2.0, 3.0) == 1.0
        assert crisp.within_distance_probability(3.0, 2.0) == 0.0

    def test_within_distance_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            CrispPDF().within_distance_probability(1.0, -1.0)

    def test_samples_are_all_at_center(self, rng):
        samples = CrispPDF().sample(rng, 7)
        assert samples.shape == (7, 2)
        assert np.all(samples == 0.0)

    def test_total_mass(self):
        assert CrispPDF().total_mass() == 1.0

    def test_rotational_symmetry_flag(self):
        assert CrispPDF().is_rotationally_symmetric()


class TestTabulatedRadialPDF:
    def make_triangle(self) -> TabulatedRadialPDF:
        radii = np.linspace(0.0, 2.0, 51)
        densities = np.maximum(0.0, 1.0 - radii / 2.0)
        return TabulatedRadialPDF(radii, densities)

    def test_normalization_on_construction(self):
        pdf = self.make_triangle()
        assert pdf.total_mass() == pytest.approx(1.0, abs=1e-3)

    def test_density_interpolation_and_cutoff(self):
        pdf = self.make_triangle()
        assert pdf.density(0.0) > pdf.density(1.0) > 0.0
        assert pdf.density(2.5) == 0.0

    def test_density_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            self.make_triangle().density(-0.1)

    def test_densities_are_the_scalar_densities(self):
        # One interpolation over the array, the support clamp included,
        # gives the floats of one scalar call per radius.
        pdf = self.make_triangle()
        radii = np.concatenate([np.linspace(0.0, 2.5, 997), [2.0, np.nextafter(2.0, 3.0)]])
        assert pdf.densities(radii).tolist() == [pdf.density(float(r)) for r in radii]
        with pytest.raises(ValueError):
            pdf.densities(np.array([0.5, -0.1]))

    def test_grid_is_a_copy(self):
        pdf = self.make_triangle()
        grid = pdf.grid
        grid[0] = 99.0
        assert pdf.grid[0] == 0.0

    def test_validation_of_malformed_inputs(self):
        with pytest.raises(ValueError):
            TabulatedRadialPDF(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            TabulatedRadialPDF(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            TabulatedRadialPDF(np.array([0.0, 1.0]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            TabulatedRadialPDF(np.array([0.0, 1.0]), np.array([0.0, 0.0]))

    def test_within_distance_probability_generic_path(self):
        pdf = self.make_triangle()
        assert pdf.within_distance_probability(0.0, 5.0) == 1.0
        assert pdf.within_distance_probability(10.0, 1.0) == 0.0
        partial = pdf.within_distance_probability(1.5, 1.0)
        assert 0.0 < partial < 1.0


class TestGenericNumericDefaults:
    def test_generic_radial_cdf_matches_analytic(self):
        uniform = UniformDiskPDF(2.0)
        numeric = super(UniformDiskPDF, uniform).radial_cdf(1.0)
        assert numeric == pytest.approx(uniform.radial_cdf(1.0), abs=2e-3)

    def test_generic_sampling_respects_support(self, rng):
        uniform = UniformDiskPDF(1.5)
        samples = super(UniformDiskPDF, uniform).sample(rng, 500)
        radii = np.hypot(samples[:, 0], samples[:, 1])
        assert np.all(radii <= 1.5 + 1e-9)

    def test_generic_within_distance_density_non_negative(self):
        uniform = UniformDiskPDF(1.0)
        generic_density = super(UniformDiskPDF, uniform).within_distance_density
        for Rd in np.linspace(0.5, 4.0, 8):
            assert generic_density(2.0, float(Rd)) >= 0.0
