"""Tests for the shared utilities (validation helpers)."""

import pytest

from repro.geometry.envelope.divide_conquer import lower_envelope
from ..helpers.validation import (
    envelope_matches_pointwise_minimum,
    envelopes_equal_pointwise,
    intervals_are_disjoint,
    total_interval_length,
)

from ..conftest import make_linear_function


class TestValidationHelpers:
    def test_envelope_matches_pointwise_minimum_detects_mismatch(self):
        near = make_linear_function("near", 1.0, 0.0, 0.0, 0.0)
        far = make_linear_function("far", 5.0, 0.0, 0.0, 0.0)
        good = lower_envelope([near, far], 0.0, 10.0)
        assert envelope_matches_pointwise_minimum(good, [near, far], 0.0, 10.0)
        # An "envelope" made only of the far function is not the minimum.
        from repro.geometry.envelope.pieces import Envelope, EnvelopePiece

        bad = Envelope([EnvelopePiece(far, 0.0, 10.0)])
        assert not envelope_matches_pointwise_minimum(bad, [near, far], 0.0, 10.0)

    def test_envelopes_equal_pointwise(self):
        near = make_linear_function("near", 1.0, 0.0, 0.0, 0.0)
        far = make_linear_function("far", 5.0, 0.0, 0.0, 0.0)
        first = lower_envelope([near, far], 0.0, 10.0)
        second = lower_envelope([far, near], 0.0, 10.0)
        assert envelopes_equal_pointwise(first, second)

    def test_envelopes_with_disjoint_spans_are_not_equal(self):
        near = make_linear_function("near", 1.0, 0.0, 0.0, 0.0, 0.0, 5.0)
        far = make_linear_function("far", 1.0, 0.0, 0.0, 0.0, 6.0, 10.0)
        first = lower_envelope([near], 0.0, 5.0)
        second = lower_envelope([far], 6.0, 10.0)
        assert not envelopes_equal_pointwise(first, second)

    def test_interval_helpers(self):
        assert intervals_are_disjoint([(0.0, 1.0), (1.0, 2.0), (3.0, 4.0)])
        assert not intervals_are_disjoint([(0.0, 2.0), (1.0, 3.0)])
        assert total_interval_length([(0.0, 1.0), (3.0, 4.5)]) == pytest.approx(2.5)

    def test_sample_count_validation(self):
        near = make_linear_function("near", 1.0, 0.0, 0.0, 0.0)
        envelope = lower_envelope([near], 0.0, 10.0)
        with pytest.raises(ValueError):
            envelope_matches_pointwise_minimum(envelope, [near], 0.0, 10.0, samples=1)
