"""Tests for reverse and all-pairs continuous probabilistic NN queries."""

import pytest

from repro.core.queries import QueryContext
from repro.core.reverse import all_pairs_nn_matrix, mutual_nn_pairs, reverse_nn_query
from repro.trajectories.mod import MovingObjectsDatabase
from repro.uncertainty.within_distance import effective_pruning_radius

from ..conftest import straight_trajectory


@pytest.fixture
def mod() -> MovingObjectsDatabase:
    """Three vehicles on parallel tracks plus a far-away pair.

    ``center`` runs between ``north`` and ``south`` (2 miles away from each);
    ``remote`` and ``remote-buddy`` drive 40 miles away and only one mile
    apart, so each other's nearest neighbor is unambiguous and the near
    cluster is irrelevant to them.
    """
    return MovingObjectsDatabase(
        [
            straight_trajectory("center", (0.0, 0.0), (30.0, 0.0)),
            straight_trajectory("north", (0.0, 2.0), (30.0, 2.0)),
            straight_trajectory("south", (0.0, -2.0), (30.0, -2.0)),
            straight_trajectory("remote", (0.0, 40.0), (30.0, 40.0)),
            straight_trajectory("remote-buddy", (0.0, 39.0), (30.0, 39.0)),
        ]
    )


class TestReverseNNQuery:
    def test_center_is_reverse_neighbor_of_its_flankers(self, mod):
        results = reverse_nn_query(mod, "center", 0.0, 60.0)
        ids = [result.object_id for result in results]
        assert "north" in ids and "south" in ids
        assert "remote" not in ids

    def test_remote_object_is_reverse_neighbor_only_of_its_buddy(self, mod):
        results = reverse_nn_query(mod, "remote", 0.0, 60.0)
        # Only the buddy (one mile away) can have 'remote' as its NN; the near
        # cluster is ~38 miles away with closer alternatives of its own.
        assert [result.object_id for result in results] == ["remote-buddy"]

    def test_reverse_results_report_always_and_fraction(self, mod):
        results = reverse_nn_query(mod, "center", 0.0, 60.0)
        by_id = {result.object_id: result for result in results}
        assert by_id["north"].always
        assert by_id["north"].fraction == pytest.approx(1.0, abs=1e-6)

    def test_results_sorted_by_fraction(self, mod):
        results = reverse_nn_query(mod, "center", 0.0, 60.0)
        fractions = [result.fraction for result in results]
        assert fractions == sorted(fractions, reverse=True)

    def test_candidate_restriction(self, mod):
        results = reverse_nn_query(mod, "center", 0.0, 60.0, candidate_ids=["north"])
        assert [result.object_id for result in results] == ["north"]

    def test_unknown_query_raises(self, mod):
        with pytest.raises(KeyError):
            reverse_nn_query(mod, "missing", 0.0, 60.0)

    def test_reverse_vs_forward_asymmetry(self):
        """An object crowded by others may be 'everyone's neighbor' only one way.

        ``loner`` is nearest to the pair but the pair members are each other's
        nearest neighbors — so the loner has the pair in its forward answer,
        while its reverse answer may still contain them only through the band.
        """
        mod = MovingObjectsDatabase(
            [
                straight_trajectory("pair-a", (0.0, 0.0), (30.0, 0.0)),
                straight_trajectory("pair-b", (0.0, 0.6), (30.0, 0.6)),
                straight_trajectory("loner", (0.0, 6.0), (30.0, 6.0)),
            ]
        )
        reverse_of_loner = reverse_nn_query(mod, "loner", 0.0, 60.0)
        # Neither pair member can have the loner as NN: the partner is closer
        # by more than the band.
        assert reverse_of_loner == []


class TestAllPairs:
    def test_matrix_shape_and_contents(self, mod):
        matrix = all_pairs_nn_matrix(mod, 0.0, 60.0)
        assert set(matrix) == {"center", "north", "south", "remote", "remote-buddy"}
        assert set(matrix["center"]) == {"north", "south"}
        assert "center" in matrix["north"]
        assert matrix["remote"] == ["remote-buddy"]
        assert matrix["remote-buddy"] == ["remote"]

    def test_mutual_pairs(self, mod):
        pairs = mutual_nn_pairs(mod, 0.0, 60.0)
        normalized = {tuple(sorted((str(a), str(b)))) for a, b in pairs}
        assert ("center", "north") in normalized
        assert ("center", "south") in normalized
        assert ("remote", "remote-buddy") in normalized
        # The far pair never mixes with the near cluster.
        assert not any(
            ("remote" in pair or "remote-buddy" in pair)
            and ("center" in pair or "north" in pair or "south" in pair)
            for pair in normalized
        )

    def test_mutual_pairs_are_unique(self, mod):
        pairs = mutual_nn_pairs(mod, 0.0, 60.0)
        normalized = [tuple(sorted((str(a), str(b)))) for a, b in pairs]
        assert len(normalized) == len(set(normalized))


def _pdf_pair_context(mod, center_id, t_start, t_end):
    """A context centred on ``center_id`` whose band is the largest
    ``effective_pruning_radius`` of any other object's pdf against the
    centre's pdf, derived pair by pair."""
    center = mod.get(center_id)
    band_width = max(
        effective_pruning_radius(trajectory.pdf, center.pdf)
        for trajectory in mod
        if trajectory.object_id != center_id
    )
    functions = mod.distance_functions(center_id, t_start, t_end)
    return QueryContext.build(functions, center_id, t_start, t_end, band_width)


@pytest.fixture
def mixed_radii_mod() -> MovingObjectsDatabase:
    """Five tracks whose uncertainty radii all differ, so each centre's
    default band depends on the pdfs it is paired with.  ``c`` lies 6.5
    miles from ``a``: inside the 4-mile band of ``b``'s pdf pairs, outside
    the 2.8-mile band of ``a``'s, so one band for every centre would
    change ``a``'s answer."""
    return MovingObjectsDatabase(
        [
            straight_trajectory("a", (0.0, 0.0), (30.0, 0.0), radius=0.1),
            straight_trajectory("b", (0.0, 3.0), (30.0, 3.0), radius=1.3),
            straight_trajectory("c", (0.0, -6.5), (30.0, -6.5), radius=0.4),
            straight_trajectory("d", (0.0, 10.0), (30.0, 14.0), radius=0.7),
            straight_trajectory("e", (0.0, 30.0), (30.0, 17.0), radius=0.25),
        ]
    )


class TestDefaultBand:
    """With no ``band_width`` given, every per-centre context uses the MOD's
    ``default_band_width``, which equals the band derived pair by pair from
    the pdfs even when the radii are mixed."""

    def test_all_pairs_matches_the_pdf_pair_band(self, mixed_radii_mod):
        matrix = all_pairs_nn_matrix(mixed_radii_mod, 0.0, 60.0)
        expected = {
            center_id: _pdf_pair_context(mixed_radii_mod, center_id, 0.0, 60.0).uq31_all_sometime()
            for center_id in mixed_radii_mod.object_ids
        }
        assert matrix == expected

    def test_reverse_matches_the_pdf_pair_band(self, mixed_radii_mod):
        for query_id in mixed_radii_mod.object_ids:
            expected = []
            for candidate_id in mixed_radii_mod.object_ids:
                if candidate_id == query_id:
                    continue
                context = _pdf_pair_context(mixed_radii_mod, candidate_id, 0.0, 60.0)
                if context.uq11_sometime(query_id):
                    expected.append(candidate_id)
            got = reverse_nn_query(mixed_radii_mod, query_id, 0.0, 60.0)
            assert sorted(result.object_id for result in got) == sorted(expected)

    def test_default_contexts_carry_the_stores_band(self, mixed_radii_mod):
        for center_id in mixed_radii_mod.object_ids:
            context = QueryContext.from_mod(mixed_radii_mod, center_id, 0.0, 60.0)
            reference = _pdf_pair_context(mixed_radii_mod, center_id, 0.0, 60.0)
            assert context.band_width == reference.band_width
