"""Ablation A2 benchmark: envelope cost vs segments per trajectory, and tree construction.

The closing remark of Section 3.2 notes that with m segments per trajectory
the complexity bounds pick up a factor of m.  These benchmarks measure the
divide-and-conquer envelope construction as m grows, plus the full IPAC-NN
tree construction (Algorithm 3) that the continuous queries sit on.
"""

from __future__ import annotations

import pytest

from repro.core.ipacnn import build_ipac_tree
from repro.geometry.envelope.klevel import k_level_envelopes
from repro.reference.envelope import le_alg

from .conftest import build_functions


@pytest.mark.parametrize("segments", [1, 2, 4, 8])
def test_ablation_envelope_vs_segments_per_trajectory(benchmark, segments):
    """Envelope construction for 100 objects with 1-8 segments each."""
    functions, query = build_functions(100, segments=segments)
    envelope = benchmark(le_alg, functions, query.start_time, query.end_time)
    assert envelope.is_contiguous
    benchmark.extra_info["segments_per_trajectory"] = segments
    benchmark.extra_info["envelope_pieces"] = len(envelope)


def test_ablation_k_level_envelopes(benchmark, small_workload):
    """First three envelope levels (the rank-k query substrate)."""
    functions, query = small_workload
    levels = benchmark(
        k_level_envelopes, functions, query.start_time, query.end_time, 3
    )
    assert len(levels) >= 1


def test_ablation_ipac_tree_construction(benchmark, small_workload):
    """Algorithm 3: full IPAC-NN tree (band width 4r = 2 miles)."""
    functions, query = small_workload
    tree = benchmark(
        build_ipac_tree,
        functions,
        query.object_id,
        query.start_time,
        query.end_time,
        2.0,
    )
    assert tree.size() >= 1
    benchmark.extra_info["tree_nodes"] = tree.size()
    benchmark.extra_info["tree_depth"] = tree.depth()
