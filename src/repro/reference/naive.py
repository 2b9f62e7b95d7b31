"""Naive lower-envelope construction — the paper's baseline for Figure 11.

The naive approach computes the intersection times of *every pair* of
distance functions (O(N²) intersections), sorts the resulting critical
times, and then, for each elementary interval, scans all N functions to find
the lowest one.  Overall O(N² log N + N · N²) worst case; the paper quotes
O(N² log N) for the sort-dominated regime.  It exists to provide the baseline
series of Figure 11 and as an oracle for correctness tests of the
divide-and-conquer construction.
"""

from __future__ import annotations

from typing import List, Sequence

from ..core.pruning import is_within_band_sometime, time_within_band
from ..core.tolerances import TIME_TOLERANCE as _TIME_TOLERANCE
from ..geometry.envelope.hyperbola import DistanceFunction
from ..geometry.envelope.pieces import Envelope, EnvelopePiece


def naive_lower_envelope(
    functions: Sequence[DistanceFunction], t_lo: float, t_hi: float
) -> Envelope:
    """Lower envelope computed by the quadratic baseline algorithm.

    Args:
        functions: the distance functions (at least one).
        t_lo: window start.
        t_hi: window end.

    Returns:
        The same :class:`Envelope` the divide-and-conquer algorithm produces
        (up to piece coalescing), obtained the slow way.
    """
    if not functions:
        raise ValueError("cannot build the lower envelope of an empty collection")
    if t_hi < t_lo:
        raise ValueError(f"empty window [{t_lo}, {t_hi}]")
    if t_hi == t_lo:
        winner = min(functions, key=lambda f: f.value(t_lo))
        return Envelope([EnvelopePiece(winner, t_lo, t_hi)])

    critical = _all_pairwise_critical_times(functions, t_lo, t_hi)
    pieces: List[EnvelopePiece] = []
    for interval_start, interval_end in zip(critical, critical[1:]):
        if interval_end - interval_start <= _TIME_TOLERANCE:
            continue
        midpoint = (interval_start + interval_end) / 2.0
        winner = min(functions, key=lambda f: f.value(midpoint))
        pieces.append(EnvelopePiece(winner, interval_start, interval_end))
    if not pieces:
        winner = min(functions, key=lambda f: f.value(t_lo))
        pieces = [EnvelopePiece(winner, t_lo, t_hi)]
    return Envelope(pieces)


def _all_pairwise_critical_times(
    functions: Sequence[DistanceFunction], t_lo: float, t_hi: float
) -> List[float]:
    """All pairwise intersection times plus piece breakpoints, sorted."""
    times = [t_lo, t_hi]
    for function in functions:
        times.extend(function.breakpoints(t_lo, t_hi))
    for index, first in enumerate(functions):
        for second in functions[index + 1:]:
            times.extend(first.intersection_times(second, t_lo, t_hi))
    times.sort()
    deduplicated: List[float] = []
    for t in times:
        if not deduplicated or t - deduplicated[-1] > _TIME_TOLERANCE:
            deduplicated.append(t)
    if deduplicated[-1] < t_hi - _TIME_TOLERANCE:
        deduplicated.append(t_hi)
    deduplicated[0] = t_lo
    deduplicated[-1] = t_hi
    return deduplicated


# ----------------------------------------------------------------------
# Naive baselines (Figure 12).
# ----------------------------------------------------------------------


def naive_uq11_sometime(
    functions: Sequence[DistanceFunction],
    target_id: object,
    t_start: float,
    t_end: float,
    band_width: float,
) -> bool:
    """Naive UQ11: rebuild the pointwise minimum from all pairwise intersections.

    This is the paper's comparison baseline: no precomputed envelope is
    available, so every query pays the O(N² log N) pairwise-intersection
    sweep before the O(N) check.
    """
    envelope = naive_lower_envelope(list(functions), t_start, t_end)
    target = _find_function(functions, target_id)
    return is_within_band_sometime(target, envelope, band_width, t_start, t_end)


def naive_uq13_fraction(
    functions: Sequence[DistanceFunction],
    target_id: object,
    t_start: float,
    t_end: float,
    band_width: float,
) -> float:
    """Naive UQ13: pairwise-intersection sweep plus duration accumulation."""
    envelope = naive_lower_envelope(list(functions), t_start, t_end)
    target = _find_function(functions, target_id)
    duration = t_end - t_start
    if duration <= 0:
        return 1.0 if is_within_band_sometime(target, envelope, band_width, t_start, t_end) else 0.0
    covered = time_within_band(target, envelope, band_width, t_start, t_end)
    return min(1.0, covered / duration)


def _find_function(
    functions: Sequence[DistanceFunction], target_id: object
) -> DistanceFunction:
    for function in functions:
        if function.object_id == target_id:
            return function
    raise KeyError(f"unknown candidate {target_id!r}")
