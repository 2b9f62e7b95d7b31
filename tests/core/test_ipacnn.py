"""Tests for Algorithm 3: constructing the IPAC-NN tree."""

from itertools import permutations

import numpy as np
import pytest

from repro.core import queries
from repro.core.ipacnn import build_ipac_tree
from repro.core.queries import QueryContext
from repro.geometry.envelope import divide_conquer
from repro.geometry.envelope.divide_conquer import lower_envelope
from repro.geometry.envelope.hyperbola import DistanceFunction
from repro.geometry.envelope.klevel import k_level_envelopes

from ..conftest import make_linear_function, random_functions


class TestTreeConstruction:
    def test_empty_candidates_give_empty_tree(self):
        tree = build_ipac_tree([], "q", 0.0, 10.0, band_width=2.0)
        assert tree.size() == 0
        assert tree.depth() == 0

    def test_invalid_window_and_band_rejected(self, crossing_functions):
        with pytest.raises(ValueError):
            build_ipac_tree(crossing_functions, "q", 10.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            build_ipac_tree(crossing_functions, "q", 0.0, 10.0, -1.0)

    def test_level1_nodes_match_lower_envelope(self, crossing_functions):
        tree = build_ipac_tree(crossing_functions, "q", 0.0, 10.0, band_width=2.0)
        envelope = lower_envelope(crossing_functions, 0.0, 10.0)
        level1 = tree.nodes_at_level(1)
        assert [node.object_id for node in level1] == envelope.owner_ids
        assert level1[0].t_start == pytest.approx(0.0)
        assert level1[-1].t_end == pytest.approx(10.0)

    def test_children_lie_within_parent_interval(self, rng):
        functions = random_functions(10, rng)
        tree = build_ipac_tree(functions, "q", 0.0, 10.0, band_width=3.0)
        for node in tree.walk():
            for child in node.children:
                assert child.t_start >= node.t_start - 1e-6
                assert child.t_end <= node.t_end + 1e-6
                assert child.level == node.level + 1

    def test_path_labels_are_distinct(self, rng):
        functions = random_functions(10, rng)
        tree = build_ipac_tree(functions, "q", 0.0, 10.0, band_width=3.0)
        times = np.linspace(0.05, 9.95, 19)
        for t in times:
            ranking = tree.ranking_at(float(t))
            assert len(ranking) == len(set(ranking))

    def test_ranking_agrees_with_level_envelopes(self, rng):
        functions = random_functions(8, rng)
        # A huge band keeps every candidate, so the tree ranking must equal
        # the k-level-envelope ranking everywhere.
        tree = build_ipac_tree(functions, "q", 0.0, 10.0, band_width=1000.0)
        levels = k_level_envelopes(functions, 0.0, 10.0, max_levels=4)
        for t in np.linspace(0.1, 9.9, 15):
            tree_ranking = tree.ranking_at(float(t))[:3]
            level_ranking = levels.owners_at(float(t))[:3]
            assert tree_ranking == level_ranking

    def test_pruned_objects_never_appear(self):
        near = make_linear_function("near", 1.0, 0.0, 0.0, 0.0)
        close = make_linear_function("close", 2.0, 0.0, 0.0, 0.0)
        far = make_linear_function("far", 100.0, 0.0, 0.0, 0.0)
        tree = build_ipac_tree([near, close, far], "q", 0.0, 10.0, band_width=2.0)
        assert "far" not in tree.labelled_object_ids()
        assert set(tree.labelled_object_ids()) == {"near", "close"}

    def test_max_levels_caps_depth(self, rng):
        functions = random_functions(10, rng)
        tree = build_ipac_tree(functions, "q", 0.0, 10.0, band_width=1000.0, max_levels=2)
        assert tree.depth() <= 2

    def test_depth_bounded_by_candidate_count(self, rng):
        functions = random_functions(5, rng)
        tree = build_ipac_tree(functions, "q", 0.0, 10.0, band_width=1000.0)
        assert tree.depth() <= 5

    def test_query_metadata_stored(self, crossing_functions):
        tree = build_ipac_tree(crossing_functions, "the-query", 2.0, 8.0, band_width=2.0)
        assert tree.query_id == "the-query"
        assert tree.t_start == 2.0
        assert tree.t_end == 8.0

    def test_single_candidate_tree(self):
        only = make_linear_function("only", 3.0, 0.0, 0.0, 0.0)
        tree = build_ipac_tree([only], "q", 0.0, 10.0, band_width=2.0)
        assert tree.size() == 1
        assert tree.depth() == 1
        assert tree.ranking_at(5.0) == ["only"]


class TestTreeOfContext:
    """The tree is read off the context's levels, whatever the candidate order."""

    @staticmethod
    def _shape(tree):
        def node(item):
            children = tuple(node(child) for child in item.children)
            return (item.object_id, item.t_start, item.t_end, item.level, children)

        return tuple(node(root) for root in tree.roots)

    def test_identical_candidates_give_one_tree_in_every_order(self):
        a = make_linear_function("a", 1.0, 0.0, 0.8, 0.0)
        b = DistanceFunction("b", list(a.pieces))
        c = make_linear_function("c", 9.0, 0.0, -0.8, 0.0)
        trees = {
            self._shape(build_ipac_tree(list(order), "q", 0.0, 10.0, band_width=1000.0))
            for order in permutations([a, b, c])
        }
        assert len(trees) == 1

    def test_tree_ranking_is_the_context_ranking_in_every_order(self):
        a = make_linear_function("a", 1.0, 0.0, 0.8, 0.0)
        b = DistanceFunction("b", list(a.pieces))
        c = make_linear_function("c", 9.0, 0.0, -0.8, 0.0)
        for order in permutations([a, b, c]):
            context = QueryContext.build(list(order), "q", 0.0, 10.0, 1000.0)
            tree = context.ipac_tree()
            for t in (0.5, 2.25, 4.75, 5.5, 9.0):
                assert tree.ranking_at(t) == context.ranking_at(t, 3)
            assert tree.ranking_at(2.25) == ["a", "b", "c"]

    def test_build_is_the_tree_of_a_context(self, rng):
        functions = random_functions(9, rng)
        tree = build_ipac_tree(functions, "q", 0.0, 10.0, band_width=3.0, max_levels=3)
        context = QueryContext.build(functions, "q", 0.0, 10.0, 3.0)
        assert self._shape(tree) == self._shape(context.ipac_tree(max_levels=3))

    def test_context_tree_builds_no_envelope(self, rng, monkeypatch):
        functions = random_functions(9, rng)
        context = QueryContext.build(functions, "q", 0.0, 10.0, 3.0)

        def refuse(*args, **kwargs):
            raise AssertionError("the tree must reuse the context's envelope")

        monkeypatch.setattr(queries, "lower_envelope", refuse)
        monkeypatch.setattr(divide_conquer, "lower_envelope", refuse)
        tree = context.ipac_tree()
        assert [node.object_id for node in tree.roots] == context.envelope.owner_ids

    def test_unbounded_tree_reads_the_cached_levels(self, rng):
        context = QueryContext.build(random_functions(7, rng), "q", 0.0, 10.0, 1000.0)
        tree = context.ipac_tree()
        levels = context.level_envelopes(2)
        assert len(levels) == tree.depth() == 7
        assert [node.object_id for node in tree.nodes_at_level(2)] == levels.level(2).owner_ids

    def test_zero_max_levels_keeps_level_one(self, crossing_functions):
        tree = build_ipac_tree(crossing_functions, "q", 0.0, 10.0, band_width=2.0, max_levels=0)
        assert tree.depth() == 1
        assert [node.object_id for node in tree.roots] == ["a", "b"]

    def test_duplicate_ids_rejected(self, crossing_functions):
        with pytest.raises(ValueError):
            build_ipac_tree(crossing_functions + crossing_functions[:1], "q", 0.0, 10.0, 2.0)
