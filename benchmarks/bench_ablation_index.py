"""Ablation A3 benchmark: index-assisted candidate pre-filtering.

Measures bulk-loading the two index substrates and probing them with a
corridor around a query trajectory, which is how the query engine narrows the
candidate set before building distance functions (the U-tree-style direction
of the paper's future work).
"""

from __future__ import annotations

import pytest

from repro.experiments.grid import GridIndex
from repro.trajectories.mod import MovingObjectsDatabase
from repro.workloads.random_waypoint import RandomWaypointConfig, generate_trajectories


@pytest.fixture(scope="module")
def index_workload():
    config = RandomWaypointConfig(num_objects=500, uncertainty_radius=0.5, seed=19)
    trajectories = generate_trajectories(config)
    return trajectories[0], trajectories[1:]


def test_ablation_grid_bulk_load(benchmark, index_workload):
    """Building the uniform grid over 500 objects."""
    _, candidates = index_workload
    index = benchmark(GridIndex.covering, candidates, 32)
    assert len(index) == len(candidates)


def table_of(candidates):
    """The segment box table A3 reports: one box per segment."""
    return MovingObjectsDatabase(candidates).build_index(max_box_extent=None)


def test_ablation_table_bulk_load(benchmark, index_workload):
    """Loading the segment box table over 500 objects."""
    _, candidates = index_workload
    index = benchmark(table_of, candidates)
    assert len(index) == len(candidates)


def test_ablation_grid_corridor_probe(benchmark, index_workload):
    """Corridor probe (5 miles around the query) against the grid."""
    query, candidates = index_workload
    index = GridIndex.covering(candidates, cells=32)
    found = benchmark(index.query_corridor, query, 5.0, 0.0, 60.0)
    assert len(found) <= len(candidates)
    benchmark.extra_info["candidates_retained"] = len(found)


def test_ablation_table_corridor_probe(benchmark, index_workload):
    """Corridor scan (5 miles around the query) of the segment box table."""
    query, candidates = index_workload
    index = table_of(candidates)
    (found,) = benchmark(
        lambda: index.probe([index.corridor_probes(query, 5.0, 0.0, 60.0)])
    )
    assert len(found) <= len(candidates)
    benchmark.extra_info["candidates_retained"] = len(found)
