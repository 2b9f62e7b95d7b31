"""Tests for probability descriptors attached to IPAC-NN nodes."""

import pytest

from repro.core.answer import IPACNode
from repro.core.descriptors import annotate_tree, compute_descriptor
from repro.core.queries import QueryContext
from repro.trajectories.mod import MovingObjectsDatabase

from ..conftest import straight_trajectory


@pytest.fixture
def mod() -> MovingObjectsDatabase:
    return MovingObjectsDatabase(
        [
            straight_trajectory("q", (0.0, 0.0), (30.0, 0.0)),
            straight_trajectory("near", (0.0, 1.5), (30.0, 1.5)),
            straight_trajectory("mid", (0.0, -2.5), (30.0, -2.5)),
        ]
    )


class TestComputeDescriptor:
    def test_descriptor_values_are_probabilities(self, mod):
        node = IPACNode("near", 10.0, 40.0, level=1)
        descriptor = compute_descriptor(node, mod, "q", samples=3, grid_size=96)
        assert 0.0 <= descriptor.minimum <= descriptor.mean <= descriptor.maximum <= 1.0
        assert len(descriptor.sample_times) == 3

    def test_sample_times_lie_inside_interval(self, mod):
        node = IPACNode("near", 10.0, 40.0, level=1)
        descriptor = compute_descriptor(node, mod, "q", samples=4, grid_size=96)
        assert all(10.0 < t < 40.0 for t in descriptor.sample_times)

    def test_nearest_object_has_high_probability(self, mod):
        node = IPACNode("near", 10.0, 40.0, level=1)
        descriptor = compute_descriptor(node, mod, "q", samples=2, grid_size=96)
        assert descriptor.mean > 0.5

    def test_sample_count_validation(self, mod):
        node = IPACNode("near", 10.0, 40.0, level=1)
        with pytest.raises(ValueError):
            compute_descriptor(node, mod, "q", samples=0)

    def test_zero_duration_node(self, mod):
        node = IPACNode("near", 20.0, 20.0, level=1)
        descriptor = compute_descriptor(node, mod, "q", samples=3, grid_size=96)
        assert len(descriptor.sample_times) == 1


class TestAnnotateTree:
    def test_annotation_bounded_by_max_nodes(self, mod):
        tree = QueryContext.from_mod(mod, "q", 0.0, 60.0).ipac_tree()
        annotated = annotate_tree(tree, mod, samples=2, grid_size=64, max_nodes=1)
        assert annotated == 1
        nodes = list(tree.walk())
        assert nodes[0].descriptor is not None

    def test_full_annotation(self, mod):
        tree = QueryContext.from_mod(mod, "q", 0.0, 60.0).ipac_tree(max_levels=2)
        annotated = annotate_tree(tree, mod, samples=2, grid_size=64)
        assert annotated == tree.size()
        # One evaluation serves every node: each node's slice of it is the
        # descriptor the node gets alone.
        for node in tree.walk():
            assert node.descriptor == compute_descriptor(node, mod, "q", samples=2, grid_size=64)
