"""Figure 12 benchmark: existential (UQ11) and quantitative (UQ13) query time.

The paper compares the envelope-based processing (after O(N log N)
pre-processing) against a naive approach that inspects all pairwise
intersection times on every query, averaged over randomly chosen target
objects, with X = 50% for the quantitative variant.  The envelope-based
predicates are orders of magnitude faster — the same shape these benchmarks
expose at reduced population sizes.
"""

from __future__ import annotations

import pytest

from repro.core.queries import QueryContext
from repro.reference.naive import naive_uq11_sometime, naive_uq13_fraction

BAND = 2.0  # 4r for the default 0.5-mile uncertainty radius


@pytest.fixture(scope="module")
def prepared_context(medium_workload):
    functions, query = medium_workload
    context = QueryContext.build(
        functions, query.object_id, query.start_time, query.end_time, BAND
    )
    # Force the one-off pre-processing out of the measured region.
    context.survivors()
    return functions, query, context


def _target_ids(functions, count=5):
    step = max(1, len(functions) // count)
    return [functions[index].object_id for index in range(0, len(functions), step)][:count]


def test_fig12_envelope_based_existential_uq11(benchmark, prepared_context):
    """UQ11 on the precomputed envelope (our approach)."""
    functions, query, context = prepared_context
    targets = _target_ids(functions)

    def run():
        return [context.uq11_sometime(target) for target in targets]

    results = benchmark(run)
    assert len(results) == len(targets)
    benchmark.extra_info["queries_per_round"] = len(targets)


def test_fig12_envelope_based_quantitative_uq13(benchmark, prepared_context):
    """UQ13 (X = 50%) on the precomputed envelope (our approach)."""
    functions, query, context = prepared_context
    targets = _target_ids(functions)

    def run():
        return [context.uq13_at_least(target, 0.5) for target in targets]

    results = benchmark(run)
    assert len(results) == len(targets)


def test_fig12_naive_existential_uq11(benchmark, small_workload):
    """UQ11 via the naive all-pairwise-intersections baseline."""
    functions, query = small_workload
    target = functions[len(functions) // 2].object_id
    result = benchmark(
        naive_uq11_sometime, functions, target, query.start_time, query.end_time, BAND
    )
    assert result in (True, False)
    benchmark.extra_info["num_objects"] = len(functions)


def test_fig12_naive_quantitative_uq13(benchmark, small_workload):
    """UQ13 (X = 50%) via the naive baseline."""
    functions, query = small_workload
    target = functions[len(functions) // 2].object_id
    fraction = benchmark(
        naive_uq13_fraction, functions, target, query.start_time, query.end_time, BAND
    )
    assert 0.0 <= fraction <= 1.0
    benchmark.extra_info["num_objects"] = len(functions)
