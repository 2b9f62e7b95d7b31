"""Tests for the 4r pruning band and band-membership predicates."""

import numpy as np
import pytest

from repro.core.pruning import (
    band_intervals,
    is_within_band_sometime,
    prune_by_band,
    time_within_band,
    PruningStatistics,
)
from repro.geometry.envelope.divide_conquer import lower_envelope
from repro.reference.band import minimum_band_gap
from ..helpers.validation import intervals_are_disjoint, total_interval_length

from ..conftest import make_linear_function, random_functions


@pytest.fixture
def scenario():
    """Envelope owned by 'near'; 'dipping' enters the band mid-window; 'far' never does."""
    near = make_linear_function("near", 1.0, 0.0, 0.0, 0.0)          # distance 1
    dipping = make_linear_function("dipping", -10.0, 2.5, 2.0, 0.0)  # dips to 2.5 at t=5
    far = make_linear_function("far", 50.0, 0.0, 0.0, 0.0)           # distance 50
    functions = [near, dipping, far]
    envelope = lower_envelope(functions, 0.0, 10.0)
    return functions, envelope


class TestBandIntervals:
    def test_envelope_owner_is_always_inside(self, scenario):
        functions, envelope = scenario
        near = functions[0]
        intervals = band_intervals(near, envelope, 2.0, 0.0, 10.0)
        assert total_interval_length(intervals) == pytest.approx(10.0, abs=1e-6)

    def test_far_object_has_no_intervals(self, scenario):
        functions, envelope = scenario
        far = functions[2]
        assert band_intervals(far, envelope, 2.0, 0.0, 10.0) == []

    def test_dipping_object_has_partial_interval(self, scenario):
        functions, envelope = scenario
        dipping = functions[1]
        intervals = band_intervals(dipping, envelope, 2.0, 0.0, 10.0)
        assert intervals
        covered = total_interval_length(intervals)
        assert 0.0 < covered < 10.0
        # The dip is centered around t = 5 (closest approach of the dipping object).
        assert any(start <= 5.0 <= end for start, end in intervals)

    def test_intervals_are_disjoint_and_inside_window(self, rng):
        functions = random_functions(12, rng)
        envelope = lower_envelope(functions, 0.0, 10.0)
        for function in functions:
            intervals = band_intervals(function, envelope, 1.5, 0.0, 10.0)
            assert intervals_are_disjoint(intervals)
            for start, end in intervals:
                assert 0.0 - 1e-9 <= start <= end <= 10.0 + 1e-9

    def test_intervals_match_dense_sampling(self, rng):
        functions = random_functions(10, rng)
        envelope = lower_envelope(functions, 0.0, 10.0)
        band = 2.0
        times = np.linspace(0.0, 10.0, 2001)
        for function in functions[:5]:
            intervals = band_intervals(function, envelope, band, 0.0, 10.0)

            def inside(t):
                return any(start - 1e-6 <= t <= end + 1e-6 for start, end in intervals)

            for t in times:
                expected = function.value(float(t)) <= envelope.value(float(t)) + band
                if expected and not inside(float(t)):
                    # Allow disagreement only within a hair of an interval edge.
                    assert min(
                        abs(float(t) - edge)
                        for interval in intervals or [(-1e9, -1e9)]
                        for edge in interval
                    ) < 5e-3
                if not expected and inside(float(t)):
                    gap = function.value(float(t)) - envelope.value(float(t)) - band
                    assert gap < 1e-3

    def test_zero_band_width(self, scenario):
        functions, envelope = scenario
        near = functions[0]
        intervals = band_intervals(near, envelope, 0.0, 0.0, 10.0)
        assert total_interval_length(intervals) == pytest.approx(10.0, abs=1e-6)

    def test_negative_band_rejected(self, scenario):
        functions, envelope = scenario
        with pytest.raises(ValueError):
            band_intervals(functions[0], envelope, -1.0, 0.0, 10.0)

    def test_zero_length_window(self, scenario):
        functions, envelope = scenario
        assert band_intervals(functions[0], envelope, 1.0, 5.0, 5.0) == [(5.0, 5.0)]
        assert band_intervals(functions[2], envelope, 1.0, 5.0, 5.0) == []


class TestPredicates:
    def test_sometime_and_always(self, scenario):
        functions, envelope = scenario
        near, dipping, far = functions
        assert is_within_band_sometime(near, envelope, 2.0, 0.0, 10.0)
        assert time_within_band(near, envelope, 2.0, 0.0, 10.0) == pytest.approx(10.0)
        assert is_within_band_sometime(dipping, envelope, 2.0, 0.0, 10.0)
        assert time_within_band(dipping, envelope, 2.0, 0.0, 10.0) < 10.0 - 1e-6
        assert not is_within_band_sometime(far, envelope, 2.0, 0.0, 10.0)

    def test_time_within_band_bounds(self, scenario):
        functions, envelope = scenario
        near, dipping, far = functions
        assert time_within_band(near, envelope, 2.0, 0.0, 10.0) == pytest.approx(10.0, abs=1e-6)
        assert time_within_band(far, envelope, 2.0, 0.0, 10.0) == 0.0
        partial = time_within_band(dipping, envelope, 2.0, 0.0, 10.0)
        assert 0.0 < partial < 10.0

    def test_wider_band_keeps_more_time(self, scenario):
        functions, envelope = scenario
        dipping = functions[1]
        narrow = time_within_band(dipping, envelope, 1.0, 0.0, 10.0)
        wide = time_within_band(dipping, envelope, 4.0, 0.0, 10.0)
        assert wide >= narrow

    def test_minimum_band_gap(self, scenario):
        functions, envelope = scenario
        near, dipping, far = functions
        assert minimum_band_gap(near, envelope, 0.0, 10.0) == pytest.approx(0.0, abs=1e-9)
        assert minimum_band_gap(far, envelope, 0.0, 10.0) > 40.0


class TestPruneByBand:
    def test_statistics(self, scenario):
        functions, envelope = scenario
        survivors, stats = prune_by_band(functions, envelope, 2.0, 0.0, 10.0)
        assert stats.total_candidates == 3
        assert stats.surviving_candidates == 2
        assert stats.pruned_candidates == 1
        assert stats.survival_ratio == pytest.approx(2.0 / 3.0)
        assert stats.pruning_ratio == pytest.approx(1.0 / 3.0)
        assert {f.object_id for f in survivors} == {"near", "dipping"}

    def test_envelope_owners_always_survive(self, rng):
        functions = random_functions(15, rng)
        envelope = lower_envelope(functions, 0.0, 10.0)
        survivors, _ = prune_by_band(functions, envelope, 0.5, 0.0, 10.0)
        survivor_ids = {f.object_id for f in survivors}
        assert set(envelope.distinct_owner_ids) <= survivor_ids

    def test_zero_candidates_statistics(self):
        stats = PruningStatistics(0, 0)
        assert stats.survival_ratio == 0.0
        assert stats.pruning_ratio == 1.0

    def test_band_grows_survivor_count_monotonically(self, rng):
        functions = random_functions(20, rng)
        envelope = lower_envelope(functions, 0.0, 10.0)
        counts = []
        for band in (0.5, 2.0, 8.0, 32.0):
            survivors, _ = prune_by_band(functions, envelope, band, 0.0, 10.0)
            counts.append(len(survivors))
        assert counts == sorted(counts)
        assert counts[-1] == 20  # a huge band keeps everyone
