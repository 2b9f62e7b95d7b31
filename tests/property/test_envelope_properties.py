"""Property-based tests for the envelope machinery (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.geometry.envelope.divide_conquer import lower_envelope
from repro.geometry.envelope.hyperbola import DistanceFunction
from repro.reference.naive import naive_lower_envelope
from ..helpers.validation import envelopes_equal_pointwise

T_LO, T_HI = 0.0, 10.0

coordinate = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False, allow_infinity=False)
velocity = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)


@st.composite
def distance_functions(draw, min_size=2, max_size=8):
    """A list of random single-segment distance functions with distinct ids."""
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    functions = []
    for index in range(count):
        x0 = draw(coordinate)
        y0 = draw(coordinate)
        vx = draw(velocity)
        vy = draw(velocity)
        functions.append(
            DistanceFunction.single_segment(f"f{index}", x0, y0, vx, vy, T_LO, T_HI)
        )
    return functions


@settings(max_examples=40, deadline=None)
@given(functions=distance_functions())
def test_envelope_is_a_lower_bound_of_every_function(functions):
    envelope = lower_envelope(functions, T_LO, T_HI)
    for t in np.linspace(T_LO, T_HI, 41):
        value = envelope.value(float(t))
        for function in functions:
            assert value <= function.value(float(t)) + 1e-7


@settings(max_examples=40, deadline=None)
@given(functions=distance_functions())
def test_envelope_equals_pointwise_minimum(functions):
    envelope = lower_envelope(functions, T_LO, T_HI)
    for t in np.linspace(T_LO, T_HI, 41):
        minimum = min(function.value(float(t)) for function in functions)
        assert abs(envelope.value(float(t)) - minimum) <= 1e-6 * max(1.0, minimum)


@settings(max_examples=25, deadline=None)
@given(functions=distance_functions(min_size=2, max_size=6))
def test_divide_and_conquer_matches_naive(functions):
    fast = lower_envelope(functions, T_LO, T_HI)
    slow = naive_lower_envelope(functions, T_LO, T_HI)
    assert envelopes_equal_pointwise(fast, slow, samples=101)


@settings(max_examples=40, deadline=None)
@given(functions=distance_functions())
def test_envelope_is_contiguous_and_covers_the_window(functions):
    envelope = lower_envelope(functions, T_LO, T_HI)
    assert envelope.is_contiguous
    assert abs(envelope.t_start - T_LO) < 1e-9
    assert abs(envelope.t_end - T_HI) < 1e-9


@settings(max_examples=40, deadline=None)
@given(functions=distance_functions())
def test_envelope_complexity_is_davenport_schinzel_bounded(functions):
    envelope = lower_envelope(functions, T_LO, T_HI)
    assert len(envelope) <= 2 * len(functions) - 1


@settings(max_examples=40, deadline=None)
@given(functions=distance_functions())
def test_envelope_insensitive_to_input_order(functions):
    forward = lower_envelope(functions, T_LO, T_HI)
    backward = lower_envelope(list(reversed(functions)), T_LO, T_HI)
    assert envelopes_equal_pointwise(forward, backward, samples=101)
