"""Tests for Theorem 1: distance ranking vs probability ranking."""

import gc

import numpy as np
import pytest

from repro.core import ranking
from repro.core.ranking import (
    _cached_difference_pdf,
    expected_distances_at,
    monte_carlo_ranking,
    nn_probability_matrix,
    nn_probability_snapshot,
    probability_columns,
    ranking_by_expected_distance,
    ranking_by_nn_probability,
    validate_theorem1,
)
from repro.trajectories.mod import MovingObjectsDatabase
from repro.uncertainty.uniform import UniformDiskPDF

from ..conftest import straight_trajectory


@pytest.fixture
def clustered_mod() -> MovingObjectsDatabase:
    """Query plus three candidates that all stay probability-relevant.

    The candidates run parallel to the query at 1.2, 2.0 and 2.8 miles — all
    within each other's R_min/R_max rings for r = 0.5 — so every one has
    non-zero NN probability and Theorem 1's ordering claim has bite.
    """
    return MovingObjectsDatabase(
        [
            straight_trajectory("q", (0.0, 0.0), (30.0, 0.0)),
            straight_trajectory("first", (0.0, 1.2), (30.0, 1.2)),
            straight_trajectory("second", (0.0, -2.0), (30.0, -2.0)),
            straight_trajectory("third", (0.0, 2.8), (30.0, 2.8)),
        ]
    )


class TestExpectedDistances:
    def test_distances_exclude_query(self, clustered_mod):
        distances = expected_distances_at(clustered_mod, "q", 30.0)
        assert set(distances) == {"first", "second", "third"}
        assert distances["first"] == pytest.approx(1.2)
        assert distances["second"] == pytest.approx(2.0)

    def test_distance_ranking(self, clustered_mod):
        ranking = ranking_by_expected_distance(clustered_mod, "q", 30.0)
        assert ranking == ["first", "second", "third"]


class TestProbabilityRanking:
    def test_probability_ranking_matches_distance_ranking(self, clustered_mod):
        by_probability = ranking_by_nn_probability(clustered_mod, "q", 30.0, grid_size=256)
        assert by_probability == ["first", "second", "third"]

    def test_snapshot_probabilities_are_sane(self, clustered_mod):
        snapshot = nn_probability_snapshot(clustered_mod, "q", 30.0, grid_size=256)
        assert snapshot["first"] > snapshot["second"] > snapshot["third"]
        assert 0.0 < sum(snapshot.values()) <= 1.0 + 1e-6

    def test_crisp_query_variant(self, clustered_mod):
        ranking = ranking_by_nn_probability(
            clustered_mod, "q", 30.0, grid_size=256, query_is_crisp=True
        )
        assert ranking[0] == "first"


class TestProbabilityMatrix:
    """The one evaluator of Eq. 5 over a store."""

    def test_ids_follow_store_order_and_rows_follow_times(self, clustered_mod):
        ids, matrix = nn_probability_matrix(clustered_mod, "q", [0.0, 30.0, 60.0], grid_size=128)
        assert ids == ["first", "second", "third"]
        assert matrix.shape == (3, 3)

    def test_each_row_equals_its_single_time_snapshot(self, clustered_mod):
        times = [0.0, 17.5, 60.0]
        ids, matrix = nn_probability_matrix(clustered_mod, "q", times, grid_size=128)
        for row, t in zip(matrix, times):
            assert dict(zip(ids, row.tolist())) == nn_probability_snapshot(
                clustered_mod, "q", t, grid_size=128
            )

    def test_rows_are_sub_probability_vectors(self, clustered_mod):
        _, matrix = nn_probability_matrix(clustered_mod, "q", [0.0, 30.0, 60.0], grid_size=128)
        assert (matrix >= 0.0).all() and (matrix <= 1.0).all()
        assert (matrix.sum(axis=1) <= 1.0 + 1e-6).all()
        assert (matrix[:, 0] > matrix[:, 1]).all()

    def test_no_times_gives_an_empty_matrix(self, clustered_mod):
        ids, matrix = nn_probability_matrix(clustered_mod, "q", [], grid_size=128)
        assert ids == ["first", "second", "third"]
        assert matrix.shape == (0, 3)

    def test_a_lone_query_has_no_candidates(self):
        mod = MovingObjectsDatabase([straight_trajectory("q", (0.0, 0.0), (30.0, 0.0))])
        ids, matrix = nn_probability_matrix(mod, "q", [0.0, 30.0], grid_size=128)
        assert ids == []
        assert matrix.shape == (2, 0)

    def test_unknown_query_raises(self, clustered_mod):
        with pytest.raises(KeyError):
            nn_probability_matrix(clustered_mod, "missing", [30.0], grid_size=128)

    def test_a_crisp_query_concentrates_probability_on_the_nearest(self, clustered_mod):
        # Folding the query's disk into every candidate widens their pdfs, so
        # a crisp query leaves the nearest candidate with more of the mass.
        _, uncertain = nn_probability_matrix(clustered_mod, "q", [30.0], grid_size=128)
        _, crisp = nn_probability_matrix(
            clustered_mod, "q", [30.0], grid_size=128, query_is_crisp=True
        )
        assert crisp[0, 0] > uncertain[0, 0]
        assert crisp[0, 2] < uncertain[0, 2]


class TestProbabilityColumns:
    def test_columns_read_the_matrix(self):
        matrix = np.array([[0.6, 0.3], [0.5, 0.4]])
        columns = probability_columns(["a", "b"], matrix, ["b", "a"])
        assert columns == {"b": [0.3, 0.4], "a": [0.6, 0.5]}

    def test_a_non_candidate_reads_zeros(self):
        matrix = np.array([[0.6, 0.3], [0.5, 0.4], [0.2, 0.1]])
        assert probability_columns(["a", "b"], matrix, ["q"]) == {"q": [0.0, 0.0, 0.0]}


class TestTheorem1Validation:
    def test_validation_agrees_on_clustered_scenario(self, clustered_mod):
        comparison = validate_theorem1(clustered_mod, "q", 30.0, top_k=3, grid_size=256)
        assert comparison.agrees
        assert comparison.distance_ranking == comparison.probability_ranking

    def test_validation_restricts_to_meaningful_prefix(self, clustered_mod):
        # Ask for more ranks than there are probability-bearing candidates:
        # the comparison must clamp rather than fail on noise.
        comparison = validate_theorem1(clustered_mod, "q", 30.0, top_k=10, grid_size=256)
        assert comparison.agrees

    def test_one_evaluation_per_instant(self, clustered_mod, monkeypatch):
        calls = []
        evaluate = ranking.nn_probabilities

        def counting(profiles, **options):
            calls.append(len(profiles))
            return evaluate(profiles, **options)

        monkeypatch.setattr(ranking, "nn_probabilities", counting)
        assert validate_theorem1(clustered_mod, "q", 30.0, top_k=3, grid_size=128).agrees
        assert calls == [3]

    def test_monte_carlo_referee_agrees_on_top1(self, clustered_mod, rng):
        sampled = monte_carlo_ranking(clustered_mod, "q", 30.0, samples=8000, rng=rng)
        assert sampled[0] == "first"


class TestDifferencePdfCache:
    def test_freed_pdfs_never_read_another_pairs_convolution(self):
        # A cache keyed on object addresses hands a new pdf pair living at a
        # freed pair's address that pair's convolution; with the pdfs freed
        # between lookups, every lookup must still convolve its own pair.
        for lookup in range(64):
            radius = 0.5 if lookup % 2 == 0 else 2.0
            relative = _cached_difference_pdf(UniformDiskPDF(radius), UniformDiskPDF(radius))
            assert relative.support_radius == pytest.approx(2.0 * radius)
            del relative
            gc.collect()

    def test_a_live_pair_is_convolved_once(self):
        object_pdf, query_pdf = UniformDiskPDF(0.5), UniformDiskPDF(0.5)
        first = _cached_difference_pdf(object_pdf, query_pdf)
        assert _cached_difference_pdf(object_pdf, query_pdf) is first

    def test_the_cache_is_bounded(self):
        maxsize = _cached_difference_pdf.cache_info().maxsize
        assert maxsize is not None and maxsize > 0
