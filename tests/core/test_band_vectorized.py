"""Regression: vectorized band_intervals pins to the scalar brentq implementation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pruning import band_intervals
from repro.geometry.envelope.divide_conquer import lower_envelope
from repro.reference.band import band_intervals_scalar

from ..conftest import make_linear_function, random_functions

ENDPOINT_TOLERANCE = 1e-7


def assert_same_intervals(vectorized, scalar):
    assert len(vectorized) == len(scalar), (vectorized, scalar)
    for (v_start, v_end), (s_start, s_end) in zip(vectorized, scalar):
        assert v_start == pytest.approx(s_start, abs=ENDPOINT_TOLERANCE)
        assert v_end == pytest.approx(s_end, abs=ENDPOINT_TOLERANCE)


class TestAgainstScalarReference:
    @pytest.mark.parametrize("band_width", [0.0, 0.5, 2.0, 5.0])
    def test_crossing_functions_fixture(self, crossing_functions, band_width):
        envelope = lower_envelope(crossing_functions, 0.0, 10.0)
        for function in crossing_functions:
            assert_same_intervals(
                band_intervals(function, envelope, band_width, 0.0, 10.0),
                band_intervals_scalar(function, envelope, band_width, 0.0, 10.0),
            )

    def test_fifty_seeded_random_functions(self):
        rng = np.random.default_rng(424242)
        functions = random_functions(50, rng)
        envelope = lower_envelope(functions, 0.0, 10.0)
        band_width = 1.5
        for function in functions:
            assert_same_intervals(
                band_intervals(function, envelope, band_width, 0.0, 10.0),
                band_intervals_scalar(function, envelope, band_width, 0.0, 10.0),
            )

    @pytest.mark.parametrize("seed", [1, 7, 13])
    def test_random_small_collections(self, seed):
        rng = np.random.default_rng(seed)
        functions = random_functions(8, rng)
        envelope = lower_envelope(functions, 0.0, 10.0)
        for band_width in (0.0, 0.75, 3.0):
            for function in functions:
                assert_same_intervals(
                    band_intervals(function, envelope, band_width, 0.0, 10.0),
                    band_intervals_scalar(function, envelope, band_width, 0.0, 10.0),
                )

    def test_sub_window_queries(self, crossing_functions):
        envelope = lower_envelope(crossing_functions, 0.0, 10.0)
        for t_lo, t_hi in ((1.0, 9.0), (2.5, 7.5), (4.0, 4.0)):
            restricted = envelope.restricted(t_lo, t_hi) if t_lo != t_hi else envelope
            for function in crossing_functions:
                assert_same_intervals(
                    band_intervals(function, restricted, 1.0, t_lo, t_hi),
                    band_intervals_scalar(function, restricted, 1.0, t_lo, t_hi),
                )


class TestVectorizedEdgeCases:
    def test_degenerate_window(self, crossing_functions):
        envelope = lower_envelope(crossing_functions, 0.0, 10.0)
        function = crossing_functions[0]
        assert band_intervals(function, envelope, 10.0, 3.0, 3.0) == [(3.0, 3.0)]
        assert band_intervals(function, envelope, 10.0, 3.0, 3.0) == (
            band_intervals_scalar(function, envelope, 10.0, 3.0, 3.0)
        )

    def test_rejects_negative_band(self, crossing_functions):
        envelope = lower_envelope(crossing_functions, 0.0, 10.0)
        with pytest.raises(ValueError):
            band_intervals(crossing_functions[0], envelope, -1.0, 0.0, 10.0)

    def test_rejects_inverted_window(self, crossing_functions):
        envelope = lower_envelope(crossing_functions, 0.0, 10.0)
        with pytest.raises(ValueError):
            band_intervals(crossing_functions[0], envelope, 1.0, 5.0, 4.0)

    def test_envelope_owner_covers_whole_window(self):
        # A single far-away constant function: the whole window is outside a
        # narrow band around a near envelope, and inside a wide one.
        near = make_linear_function("near", 1.0, 0.0, 0.0, 0.0)
        far = make_linear_function("far", 0.0, 8.0, 0.0, 0.0)
        envelope = lower_envelope([near, far], 0.0, 10.0)
        assert band_intervals(far, envelope, 1.0, 0.0, 10.0) == []
        wide = band_intervals(far, envelope, 10.0, 0.0, 10.0)
        assert wide == [(0.0, 10.0)]
