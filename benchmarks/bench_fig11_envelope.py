"""Figure 11 benchmark: lower-envelope construction, naive vs divide-and-conquer.

The paper's Figure 11 plots construction time against the number of moving
objects (1,000-12,000) on a log scale and shows the divide-and-conquer
construction winning by orders of magnitude.  These benchmarks measure the
same two algorithms on scaled-down populations; the asymptotic gap is already
unmistakable at a few hundred objects (see ``repro.experiments.fig11`` for
the sweep that prints the full series).
"""

from __future__ import annotations

import pytest

from repro.reference.envelope import le_alg
from repro.reference.naive import naive_lower_envelope

from .conftest import build_functions


@pytest.mark.parametrize("num_objects", [50, 100, 200])
def test_fig11_divide_and_conquer_construction(benchmark, num_objects):
    """Algorithm 1 (divide-and-conquer merge of envelopes)."""
    functions, query = build_functions(num_objects)
    envelope = benchmark(le_alg, functions, query.start_time, query.end_time)
    assert envelope.is_contiguous
    benchmark.extra_info["num_objects"] = num_objects
    benchmark.extra_info["envelope_pieces"] = len(envelope)


@pytest.mark.parametrize("num_objects", [50, 100])
def test_fig11_naive_construction(benchmark, num_objects):
    """Naive baseline: all pairwise intersections, then a sweep."""
    functions, query = build_functions(num_objects)
    envelope = benchmark(
        naive_lower_envelope, functions, query.start_time, query.end_time
    )
    assert envelope.is_contiguous
    benchmark.extra_info["num_objects"] = num_objects
    benchmark.extra_info["envelope_pieces"] = len(envelope)
