"""Tests for one continuous query answered off ``QueryContext.from_mod``."""

import pytest

from repro.core.descriptors import annotate_tree
from repro.core.queries import QueryContext
from repro.engine import QueryEngine
from repro.trajectories.mod import MovingObjectsDatabase

from ..conftest import straight_trajectory


@pytest.fixture
def mod(tiny_mod) -> MovingObjectsDatabase:
    return tiny_mod


@pytest.fixture
def query(mod) -> QueryContext:
    return QueryContext.from_mod(mod, "q", 0.0, 60.0)


class TestConstruction:
    def test_default_band_width_is_4r(self, query):
        assert query.band_width == pytest.approx(2.0)  # 4 × 0.5

    def test_explicit_band_width(self, mod):
        query = QueryContext.from_mod(mod, "q", 0.0, 60.0, band_width=1.0)
        assert query.band_width == 1.0

    def test_unknown_query_id_raises(self, mod):
        with pytest.raises(KeyError):
            QueryContext.from_mod(mod, "missing", 0.0, 60.0)

    def test_empty_window_rejected(self, mod):
        with pytest.raises(ValueError):
            QueryContext.from_mod(mod, "q", 60.0, 0.0)

    def test_negative_band_rejected(self, mod):
        with pytest.raises(ValueError):
            QueryContext.from_mod(mod, "q", 0.0, 60.0, band_width=-1.0)

    def test_explicit_candidate_restriction(self, mod):
        query = QueryContext.from_mod(
            mod, "q", 0.0, 60.0, candidate_ids=["near"]
        )
        assert query.uq31_all_sometime() == ["near"]

    def test_empty_candidate_set_rejected(self, mod):
        with pytest.raises(ValueError):
            QueryContext.from_mod(mod, "q", 0.0, 60.0, candidate_ids=[])

    def test_single_object_database_rejected(self):
        lonely = MovingObjectsDatabase(
            [straight_trajectory("q", (0.0, 0.0), (30.0, 0.0))]
        )
        with pytest.raises(ValueError):
            QueryContext.from_mod(lonely, "q", 0.0, 60.0)


class TestCategoryFacades:
    def test_category1(self, query):
        assert query.uq11_sometime("near")
        assert query.uq12_always("near")
        assert query.uq11_sometime("crossing")
        assert not query.uq12_always("crossing")
        assert not query.uq11_sometime("far")
        assert 0.0 < query.uq13_fraction("crossing") < 1.0
        assert query.uq13_at_least("near", 0.9)
        assert query.nonzero_probability_intervals("far") == []

    def test_category2(self, query):
        assert query.uq21_rank_sometime("near", 1)
        assert query.uq21_rank_sometime("crossing", 2)
        assert query.uq23_rank_fraction("near", 2) == pytest.approx(1.0, abs=1e-6)
        assert query.uq23_rank_at_least("near", 1, 0.5)

    def test_category3(self, query):
        sometime = set(query.uq31_all_sometime())
        always = set(query.uq32_all_always())
        at_least_half = set(query.uq33_all_at_least(0.5))
        assert sometime == {"near", "crossing"}
        assert always == {"near"}
        assert always <= at_least_half <= sometime

    def test_category4(self, query):
        assert set(query.uq41_all_rank_sometime(1)) >= {"near"}
        assert "near" in query.uq42_all_rank_always(2)
        assert "near" in query.uq43_all_rank_at_least(2, 0.5)

    def test_fixed_time_variants(self, query):
        assert "near" in query.candidates_at(10.0)
        assert "far" not in query.candidates_at(10.0)
        ranking = query.ranking_at(30.0, 2)
        assert ranking[0] in ("near", "crossing")

    def test_answer_tree(self, query):
        tree = query.ipac_tree(max_levels=2)
        assert tree.query_id == "q"
        assert tree.depth() <= 2
        assert "far" not in tree.labelled_object_ids()

    def test_answer_tree_with_descriptors(self, mod, query):
        tree = query.ipac_tree(max_levels=1)
        annotate_tree(tree, mod, samples=2)
        assert all(node.descriptor is not None for node in tree.walk())

    def test_pruning_statistics(self, query):
        stats = query.pruning_statistics()
        assert stats.total_candidates == 3
        assert stats.surviving_candidates == 2


class TestIndexPrefiltering:
    def test_engine_candidates_keep_answers_identical(self, mod):
        plain = QueryContext.from_mod(mod, "q", 0.0, 60.0)
        candidates = QueryEngine(mod).candidate_ids("q", 0.0, 60.0)
        assert "far" not in candidates
        filtered = QueryContext.from_mod(
            mod, "q", 0.0, 60.0, candidate_ids=candidates
        )
        # Same members; the order is each context's candidate order.
        assert set(filtered.uq31_all_sometime()) == set(
            plain.uq31_all_sometime()
        )
        assert set(filtered.uq32_all_always()) == set(
            plain.uq32_all_always()
        )
