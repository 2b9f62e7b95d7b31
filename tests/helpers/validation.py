"""Validation helpers shared by the test modules."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.envelope.hyperbola import DistanceFunction
from repro.geometry.envelope.pieces import Envelope


def envelope_matches_pointwise_minimum(
    envelope: Envelope,
    functions: Sequence[DistanceFunction],
    t_lo: float,
    t_hi: float,
    samples: int = 257,
    tolerance: float = 1e-6,
) -> bool:
    """Check an envelope against the brute-force pointwise minimum on a grid.

    Used as the correctness oracle for both envelope construction algorithms:
    at every sampled time the envelope value must equal the minimum of all
    function values (within tolerance).
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    times = np.linspace(t_lo, t_hi, samples)
    for t in times:
        envelope_value = envelope.value(float(t))
        true_minimum = min(function.value(float(t)) for function in functions)
        if abs(envelope_value - true_minimum) > tolerance * max(1.0, true_minimum):
            return False
    return True


def envelopes_equal_pointwise(
    first: Envelope,
    second: Envelope,
    samples: int = 257,
    tolerance: float = 1e-6,
) -> bool:
    """Check that two envelopes agree in value on a shared sampling grid."""
    t_lo = max(first.t_start, second.t_start)
    t_hi = min(first.t_end, second.t_end)
    if t_hi < t_lo:
        return False
    times = np.linspace(t_lo, t_hi, samples)
    for t in times:
        a = first.value(float(t))
        b = second.value(float(t))
        if abs(a - b) > tolerance * max(1.0, abs(a), abs(b)):
            return False
    return True


def intervals_are_disjoint(intervals: Sequence[tuple], tolerance: float = 1e-9) -> bool:
    """True when a list of (start, end) intervals is sorted and non-overlapping."""
    for (a_start, a_end), (b_start, b_end) in zip(intervals, intervals[1:]):
        if a_end > b_start + tolerance or a_start > a_end + tolerance:
            return False
        if b_start > b_end + tolerance:
            return False
    return True


def total_interval_length(intervals: Sequence[tuple]) -> float:
    """Sum of the lengths of (start, end) intervals."""
    return sum(max(0.0, end - start) for start, end in intervals)
