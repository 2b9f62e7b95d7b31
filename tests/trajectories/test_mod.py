"""Tests for the MovingObjectsDatabase store."""

import pytest

from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import Trajectory

from ..conftest import straight_trajectory


@pytest.fixture
def mod() -> MovingObjectsDatabase:
    return MovingObjectsDatabase(
        [
            straight_trajectory("q", (0.0, 0.0), (30.0, 0.0)),
            straight_trajectory("a", (0.0, 2.0), (30.0, 2.0)),
            straight_trajectory("b", (5.0, -3.0), (25.0, 3.0)),
        ]
    )


class TestStoreOperations:
    def test_length_and_membership(self, mod):
        assert len(mod) == 3
        assert "a" in mod
        assert "missing" not in mod

    def test_get_known_and_unknown(self, mod):
        assert mod.get("a").object_id == "a"
        with pytest.raises(KeyError):
            mod.get("missing")

    def test_duplicate_ids_rejected(self, mod):
        with pytest.raises(KeyError):
            mod.add(straight_trajectory("a", (0, 0), (1, 1)))

    def test_only_uncertain_trajectories_accepted(self, mod):
        with pytest.raises(TypeError):
            mod.add(Trajectory("plain", [(0, 0, 0), (1, 1, 1)]))

    def test_remove(self, mod):
        removed = mod.remove("b")
        assert removed.object_id == "b"
        assert len(mod) == 2
        with pytest.raises(KeyError):
            mod.remove("b")

    def test_add_all_and_iteration(self):
        mod = MovingObjectsDatabase()
        mod.add_all(
            [
                straight_trajectory("x", (0, 0), (1, 1)),
                straight_trajectory("y", (1, 1), (2, 2)),
            ]
        )
        assert sorted(t.object_id for t in mod) == ["x", "y"]
        assert mod.object_ids == ["x", "y"]


class TestAggregates:
    def test_common_time_span(self, mod):
        assert mod.common_time_span() == (0.0, 60.0)

    def test_common_time_span_empty_raises(self):
        with pytest.raises(ValueError):
            MovingObjectsDatabase().common_time_span()

    def test_disjoint_spans_raise(self):
        mod = MovingObjectsDatabase(
            [
                straight_trajectory("early", (0, 0), (1, 1), t_lo=0.0, t_hi=10.0),
                straight_trajectory("late", (0, 0), (1, 1), t_lo=20.0, t_hi=30.0),
            ]
        )
        with pytest.raises(ValueError):
            mod.common_time_span()


class TestQuerySupport:
    def test_distance_functions_exclude_query(self, mod):
        functions = mod.distance_functions("q", 0.0, 60.0)
        assert sorted(f.object_id for f in functions) == ["a", "b"]

    def test_distance_functions_with_candidate_filter(self, mod):
        functions = mod.distance_functions("q", 0.0, 60.0, candidate_ids=["a", "q"])
        assert [f.object_id for f in functions] == ["a"]

    def test_distance_functions_unknown_query_raises(self, mod):
        with pytest.raises(KeyError):
            mod.distance_functions("missing", 0.0, 60.0)

    def test_clipped_database(self, mod):
        clipped = mod.clipped(10.0, 20.0)
        assert len(clipped) == 3
        assert clipped.common_time_span() == (10.0, 20.0)


class TestDefaultBandWidth:
    """``default_band_width`` in O(1) equals the maximum over every pair."""

    @staticmethod
    def loop(mod, query_id):
        from repro.uncertainty.within_distance import effective_pruning_radius

        query_pdf = mod.get(query_id).pdf
        return max(
            effective_pruning_radius(trajectory.pdf, query_pdf)
            for trajectory in mod
            if trajectory.object_id != query_id
        )

    @staticmethod
    def fleet(pdfs):
        from repro.trajectories.trajectory import UncertainTrajectory

        return MovingObjectsDatabase(
            UncertainTrajectory(
                f"o{index}", [(0.0, index, 0.0), (1.0, index, 10.0)], pdf.support_radius, pdf
            )
            for index, pdf in enumerate(pdfs)
        )

    @pytest.mark.parametrize(
        "radii",
        [
            (0.7, 0.3, 0.5),  # the query o0 holds the maximum
            (0.5, 0.5, 0.2),  # tied maximum, once held by the query
            (0.4, 0.9, 0.9),  # tied maximum among the others
            (0.1 + 0.2, 0.3, 1e-9),  # rounding-adjacent supports
        ],
    )
    def test_equals_the_loop(self, radii):
        from repro.uncertainty.uniform import UniformDiskPDF

        mod = self.fleet([UniformDiskPDF(radius) for radius in radii])
        for query_id in mod.object_ids:
            assert mod.default_band_width(query_id) == self.loop(mod, query_id)

    def test_mixed_pdf_kinds_and_updates(self):
        from repro.uncertainty.cone import ConePDF
        from repro.uncertainty.gaussian import TruncatedGaussianPDF
        from repro.uncertainty.uniform import UniformDiskPDF

        mod = self.fleet([UniformDiskPDF(0.5), ConePDF(0.8), TruncatedGaussianPDF(0.6)])
        for query_id in mod.object_ids:
            assert mod.default_band_width(query_id) == self.loop(mod, query_id)
        mod.remove("o1")  # the largest support leaves
        for query_id in mod.object_ids:
            assert mod.default_band_width(query_id) == self.loop(mod, query_id)

    def test_a_store_of_one_has_no_candidate(self):
        from repro.uncertainty.uniform import UniformDiskPDF

        mod = self.fleet([UniformDiskPDF(0.5)])
        with pytest.raises(ValueError):
            mod.default_band_width("o0")


class TestStoreIndex:
    def test_empty_store_loads_an_empty_table_and_reloads_once_filled(self, mod):
        from repro.index.table import SegmentBoxTable

        empty = MovingObjectsDatabase()
        table, action, _ = empty.sync_index()
        assert isinstance(table, SegmentBoxTable) and len(table) == 0
        assert action == "bulk"
        assert empty.sync_index()[:2] == (table, "current")
        empty.add_all(list(mod))
        filled, action, _ = empty.sync_index()
        # A table with no live entry is reloaded, not patched.
        assert action == "bulk"
        assert filled is empty.index() is not table
        fresh = empty.build_index()
        assert len(filled) == len(fresh)
        query_ids = empty.object_ids
        corridors = [5.0] * len(query_ids)
        assert empty.candidates_within_corridor(query_ids, corridors, 0.0, 60.0, filled) == (
            empty.candidates_within_corridor(query_ids, corridors, 0.0, 60.0, fresh)
        )
