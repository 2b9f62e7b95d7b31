"""Property-based tests for band pruning and the query predicates (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.core.pruning import band_intervals, prune_by_band, time_within_band
from repro.core.queries import QueryContext
from repro.geometry.envelope.divide_conquer import lower_envelope
from repro.geometry.envelope.hyperbola import DistanceFunction
from ..helpers.validation import intervals_are_disjoint

T_LO, T_HI = 0.0, 10.0

coordinate = st.floats(min_value=-25.0, max_value=25.0, allow_nan=False, allow_infinity=False)
velocity = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)
band_widths = st.floats(min_value=0.0, max_value=6.0, allow_nan=False, allow_infinity=False)


@st.composite
def function_sets(draw, min_size=2, max_size=7):
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    functions = []
    for index in range(count):
        functions.append(
            DistanceFunction.single_segment(
                f"f{index}",
                draw(coordinate),
                draw(coordinate),
                draw(velocity),
                draw(velocity),
                T_LO,
                T_HI,
            )
        )
    return functions


@settings(max_examples=30, deadline=None)
@given(functions=function_sets(), band=band_widths)
def test_band_intervals_are_disjoint_and_inside_the_window(functions, band):
    envelope = lower_envelope(functions, T_LO, T_HI)
    for function in functions:
        intervals = band_intervals(function, envelope, band, T_LO, T_HI)
        assert intervals_are_disjoint(intervals)
        for start, end in intervals:
            assert T_LO - 1e-9 <= start <= end <= T_HI + 1e-9


@settings(max_examples=30, deadline=None)
@given(functions=function_sets(), band=band_widths)
def test_time_within_band_is_bounded_by_the_window(functions, band):
    envelope = lower_envelope(functions, T_LO, T_HI)
    for function in functions:
        covered = time_within_band(function, envelope, band, T_LO, T_HI)
        assert -1e-9 <= covered <= (T_HI - T_LO) + 1e-6


@settings(max_examples=30, deadline=None)
@given(functions=function_sets(), band=band_widths)
def test_envelope_owners_always_survive_pruning(functions, band):
    envelope = lower_envelope(functions, T_LO, T_HI)
    survivors, stats = prune_by_band(functions, envelope, band, T_LO, T_HI)
    survivor_ids = {function.object_id for function in survivors}
    assert set(envelope.distinct_owner_ids) <= survivor_ids
    assert stats.surviving_candidates == len(survivors)
    assert 0.0 <= stats.survival_ratio <= 1.0


@settings(max_examples=20, deadline=None)
@given(functions=function_sets(min_size=3, max_size=6), band=band_widths)
def test_query_predicate_consistency(functions, band):
    context = QueryContext.build(functions, "query", T_LO, T_HI, band)
    sometime = set(context.uq31_all_sometime())
    always = set(context.uq32_all_always())
    half = set(context.uq33_all_at_least(0.5))
    assert always <= half <= sometime
    for function in functions:
        object_id = function.object_id
        fraction = context.uq13_fraction(object_id)
        assert -1e-9 <= fraction <= 1.0 + 1e-9
        assert context.uq11_sometime(object_id) == (object_id in sometime)
        if context.uq12_always(object_id):
            assert context.uq11_sometime(object_id)


@settings(max_examples=15, deadline=None)
@given(functions=function_sets(min_size=3, max_size=6))
def test_rank_k_membership_grows_with_k(functions):
    context = QueryContext.build(functions, "query", T_LO, T_HI, 2.0)
    previous: set = set()
    for k in range(1, 4):
        current = set(context.uq41_all_rank_sometime(k))
        assert previous <= current
        previous = current
