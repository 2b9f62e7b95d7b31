"""Tests for continuous threshold NN queries (the future-work extension)."""

import pytest

from repro.core.queries import QueryContext
from repro.core.thresholds import continuous_threshold_nn_query, probability_timeline
from repro.trajectories.mod import MovingObjectsDatabase

from ..conftest import straight_trajectory


@pytest.fixture
def mod() -> MovingObjectsDatabase:
    return MovingObjectsDatabase(
        [
            straight_trajectory("q", (0.0, 0.0), (30.0, 0.0)),
            straight_trajectory("dominant", (0.0, 1.2), (30.0, 1.2)),
            straight_trajectory("secondary", (0.0, -1.8), (30.0, -1.8)),
            straight_trajectory("irrelevant", (0.0, 25.0), (30.0, 25.0)),
        ]
    )


@pytest.fixture
def context(mod) -> QueryContext:
    return QueryContext.from_mod(mod, "q", 0.0, 60.0)


class TestThresholdQuery:
    def test_dominant_object_clears_high_threshold(self, context, mod):
        results = continuous_threshold_nn_query(
            context, mod, probability_threshold=0.6, min_time_fraction=0.5,
            time_samples=4, grid_size=96,
        )
        ids = [result.object_id for result in results]
        assert "dominant" in ids
        assert "irrelevant" not in ids

    def test_secondary_object_fails_high_threshold(self, context, mod):
        results = continuous_threshold_nn_query(
            context, mod, probability_threshold=0.6, min_time_fraction=0.5,
            time_samples=4, grid_size=96,
        )
        assert "secondary" not in [result.object_id for result in results]

    def test_low_threshold_admits_secondary(self, context, mod):
        results = continuous_threshold_nn_query(
            context, mod, probability_threshold=0.05, min_time_fraction=0.5,
            time_samples=4, grid_size=96,
        )
        ids = [result.object_id for result in results]
        assert "dominant" in ids and "secondary" in ids

    def test_results_sorted_by_fraction(self, context, mod):
        results = continuous_threshold_nn_query(
            context, mod, probability_threshold=0.05, min_time_fraction=0.0,
            time_samples=4, grid_size=96,
        )
        fractions = [result.fraction_above_threshold for result in results]
        assert fractions == sorted(fractions, reverse=True)

    def test_default_grid(self, context, mod):
        results = continuous_threshold_nn_query(context, mod, 0.6, 0.5, time_samples=3)
        assert any(result.object_id == "dominant" for result in results)

    def test_parameter_validation(self, context, mod):
        with pytest.raises(ValueError):
            continuous_threshold_nn_query(context, mod, 1.5, 0.5)
        with pytest.raises(ValueError):
            continuous_threshold_nn_query(context, mod, 0.5, -0.1)
        with pytest.raises(ValueError):
            continuous_threshold_nn_query(context, mod, 0.5, 0.5, time_samples=0)


class TestProbabilityTimeline:
    def test_series_shapes_and_bounds(self, context, mod):
        series = probability_timeline(
            context, mod, ["dominant", "secondary"], time_samples=5, grid_size=96
        )
        assert set(series) == {"dominant", "secondary"}
        for values in series.values():
            assert len(values) == 5
            assert all(0.0 <= value <= 1.0 for value in values)

    def test_dominant_series_dominates(self, context, mod):
        series = probability_timeline(
            context, mod, ["dominant", "secondary"], time_samples=4, grid_size=96
        )
        assert all(
            a >= b for a, b in zip(series["dominant"], series["secondary"])
        )

    def test_sample_validation(self, context, mod):
        with pytest.raises(ValueError):
            probability_timeline(context, mod, ["dominant"], time_samples=1)
