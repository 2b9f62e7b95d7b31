"""Reverse and all-pairs queries run as one plan; a cold context per centre
is the oracle they must match."""

import pytest

from repro.core.queries import QueryContext
from repro.core.reverse import all_pairs_nn_matrix, reverse_nn_query
from repro.workloads.random_waypoint import RandomWaypointConfig, generate_mod

WINDOW = (0.0, 60.0)


@pytest.fixture(params=[3, 11, 29])
def mod(request):
    """A dozen objects on the paper's 40×40 mile region: each centre keeps
    about half of the others, so the bands both keep and prune."""
    return generate_mod(
        RandomWaypointConfig(num_objects=12, segments_per_trajectory=2, seed=request.param)
    )


def _cold_context(mod, center_id):
    return QueryContext.from_mod(mod, center_id, *WINDOW)


def test_all_pairs_matches_a_cold_context_per_centre(mod):
    matrix = all_pairs_nn_matrix(mod, *WINDOW)
    assert list(matrix) == list(mod.object_ids)
    for center_id, candidates in matrix.items():
        assert set(candidates) == set(_cold_context(mod, center_id).uq31_all_sometime())


def test_reverse_matches_a_cold_context_per_centre(mod):
    query_id = mod.object_ids[0]
    expected = {}
    for center_id in mod.object_ids:
        if center_id == query_id:
            continue
        context = _cold_context(mod, center_id)
        if query_id in context.functions and context.uq11_sometime(query_id):
            expected[center_id] = (
                context.uq12_always(query_id),
                context.uq13_fraction(query_id),
            )
    got = reverse_nn_query(mod, query_id, *WINDOW)
    assert {result.object_id: (result.always, result.fraction) for result in got} == expected
    assert [result.fraction for result in got] == sorted(
        (result.fraction for result in got), reverse=True
    )
