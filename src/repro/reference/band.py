"""Reference band-interval extraction: the two older generations.

* :func:`band_intervals_scalar` — the first-generation extractor: a
  per-piece sample grid whose bracketed sign changes are refined with
  Brent's method (``scipy.optimize.brentq``).  It agrees with the production
  builder to root-finder precision, not bitwise, and is the only scipy
  importer in the package — which is why it lives here, outside the serving
  import graph.
* :func:`band_intervals_batch` — the per-candidate row loop: one
  ``_band_rows`` call and one ``_classify_rows`` pass per candidate around
  a sample grid over *every* row.  :mod:`repro.core.pruning` promises output
  bit-identical to this one while sampling only the rows its closed-form
  bounds leave undecided; this module imports none of that bounds code, so
  the ``==`` of the differential suite is the proof that the bounds hold.
  It deduplicates each row's roots one at a time and merges each
  candidate's intervals with ``_merge_intervals``, the rules the production
  pass applies as array operations.
* :func:`minimum_band_gap` — a sampled diagnostic nothing serves.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq

from ..core.pruning import (
    _SAMPLES_PER_INTERVAL,
    _band_rows,
    _bisect_brackets,
    _elementary_boundaries,
    _gap_at,
    _gap_grid,
    _row_sample_grid,
)
from ..core.tolerances import TIME_TOLERANCE as _TIME_TOLERANCE
from ..geometry.envelope.hyperbola import DistanceFunction, Hyperbola
from ..geometry.envelope.pieces import Envelope


def band_intervals_batch(
    functions: Sequence[DistanceFunction],
    envelope: Envelope,
    band_width: float,
    t_lo: float,
    t_hi: float,
) -> List[List[Tuple[float, float]]]:
    """Band intervals of many candidates, one reference row loop per candidate."""
    if band_width < 0:
        raise ValueError("band width must be non-negative")
    if t_hi < t_lo:
        raise ValueError(f"empty window [{t_lo}, {t_hi}]")
    functions = list(functions)
    if t_hi == t_lo:
        results: List[List[Tuple[float, float]]] = []
        for function in functions:
            gap = envelope.value(t_lo) + band_width - function.value(t_lo)
            results.append([(t_lo, t_hi)] if gap >= -_TIME_TOLERANCE else [])
        return results
    all_rows: List[Tuple[float, float, Hyperbola, Hyperbola]] = []
    row_slices = []
    for function in functions:
        rows = _band_rows(function, envelope, t_lo, t_hi)
        row_slices.append((len(all_rows), len(all_rows) + len(rows)))
        all_rows.extend(rows)
    if not all_rows:
        return [[] for _ in functions]
    lo_column = np.array([row[0] for row in all_rows])
    hi_column = np.array([row[1] for row in all_rows])
    # Python floats, as the production columns emit them.
    lo, hi = lo_column.tolist(), hi_column.tolist()
    env_coeffs = np.array([[row[2].a, row[2].b, row[2].c] for row in all_rows])
    fun_coeffs = np.array([[row[3].a, row[3].b, row[3].c] for row in all_rows])
    group_of_row = np.empty(len(lo), dtype=np.int64)
    for group, (start, end) in enumerate(row_slices):
        group_of_row[start:end] = group
    # Every row is sampled; crossing-free ones are classified at the midpoint.
    times = _row_sample_grid(lo_column, hi_column, env_coeffs, fun_coeffs)
    values = _gap_grid(times, env_coeffs, fun_coeffs, band_width)
    midpoint_gaps = _gap_at((lo_column + hi_column) / 2.0, env_coeffs, fun_coeffs, band_width)
    roots_by_row = _refine_bracketed_roots(
        times, values, env_coeffs, fun_coeffs, band_width, lo, hi,
        group_of_row, len(row_slices),
    )

    # Bucket the refined roots per candidate, re-keyed to local row indices.
    local_roots: List[dict] = [{} for _ in functions]
    for row_index, row_roots in roots_by_row.items():
        group = int(group_of_row[row_index])
        local_roots[group][row_index - row_slices[group][0]] = row_roots

    results = []
    for group, (start, end) in enumerate(row_slices):
        if start == end:
            results.append([])
            continue
        results.append(
            _classify_rows(
                lo[start:end],
                hi[start:end],
                env_coeffs[start:end],
                fun_coeffs[start:end],
                band_width,
                local_roots[group],
                midpoint_gaps[start:end],
            )
        )
    return results


def band_intervals_many(passes) -> List[List[List[Tuple[float, float]]]]:
    """Band intervals of many contexts, one :func:`band_intervals_batch` each."""
    return [band_intervals_batch(*arguments) for arguments in passes]


def _refine_bracketed_roots(
    times: np.ndarray,
    values: np.ndarray,
    env_coeffs: np.ndarray,
    fun_coeffs: np.ndarray,
    band_width: float,
    lo: List[float],
    hi: List[float],
    group_of_row: np.ndarray,
    group_count: int,
) -> dict:
    """``{row: sorted roots strictly inside it}``, one root at a time: a root
    within ``TIME_TOLERANCE`` of the last one kept in its row is dropped."""
    rows, roots = _bisect_brackets(
        times, values, env_coeffs, fun_coeffs, band_width, group_of_row, group_count
    )
    roots_by_row: dict = {}
    for row_index, root in zip(rows.tolist(), roots.tolist()):
        if lo[row_index] < root < hi[row_index]:
            roots_by_row.setdefault(row_index, []).append(root)
    for row_index, row_roots in roots_by_row.items():
        row_roots.sort()
        deduplicated: List[float] = []
        for root in row_roots:
            if not deduplicated or root - deduplicated[-1] > _TIME_TOLERANCE:
                deduplicated.append(root)
        roots_by_row[row_index] = deduplicated
    return roots_by_row


def _classify_rows(
    lo: List[float],
    hi: List[float],
    env_coeffs: np.ndarray,
    fun_coeffs: np.ndarray,
    band_width: float,
    roots_by_row: dict,
    midpoint_gaps: np.ndarray,
) -> List[Tuple[float, float]]:
    """Assemble one candidate's inside-band intervals from refined roots."""
    inside_intervals: List[Tuple[float, float]] = []
    for row_index in range(len(lo)):
        crossings = roots_by_row.get(row_index)
        if not crossings:
            if midpoint_gaps[row_index] >= 0.0:
                inside_intervals.append((lo[row_index], hi[row_index]))
            continue
        marks = [lo[row_index]] + crossings + [hi[row_index]]
        mids = np.array([
            (sub_start + sub_end) / 2.0 for sub_start, sub_end in zip(marks, marks[1:])
        ])
        sub_gaps = _gap_at(
            mids,
            env_coeffs[row_index : row_index + 1],
            fun_coeffs[row_index : row_index + 1],
            band_width,
        )
        for sub_index, (sub_start, sub_end) in enumerate(zip(marks, marks[1:])):
            if sub_end - sub_start <= _TIME_TOLERANCE:
                continue
            if sub_gaps[sub_index] >= 0.0:
                inside_intervals.append((sub_start, sub_end))

    return _merge_intervals(inside_intervals)


def band_intervals_scalar(
    function: DistanceFunction,
    envelope: Envelope,
    band_width: float,
    t_lo: float,
    t_hi: float,
) -> List[Tuple[float, float]]:
    """Reference implementation: per-piece sample grid refined with ``brentq``.

    This is the original scalar band-interval extraction; it is retained as
    the independent ground truth :func:`repro.core.pruning.band_intervals`
    is regression tested against (to root-finder precision).  Nothing in
    the serving stack calls it.
    """
    if band_width < 0:
        raise ValueError("band width must be non-negative")
    if t_hi < t_lo:
        raise ValueError(f"empty window [{t_lo}, {t_hi}]")
    if t_hi == t_lo:
        gap = envelope.value(t_lo) + band_width - function.value(t_lo)
        return [(t_lo, t_hi)] if gap >= -_TIME_TOLERANCE else []

    boundaries = _elementary_boundaries(function, envelope, t_lo, t_hi)
    inside_intervals: List[Tuple[float, float]] = []

    for interval_start, interval_end in zip(boundaries, boundaries[1:]):
        if interval_end - interval_start <= _TIME_TOLERANCE:
            continue
        piece = envelope.piece_at((interval_start + interval_end) / 2.0)

        def gap(t: float) -> float:
            return piece.function.value(t) + band_width - function.value(t)

        crossings = _sign_change_roots(gap, interval_start, interval_end, function, piece)
        marks = [interval_start] + crossings + [interval_end]
        for sub_start, sub_end in zip(marks, marks[1:]):
            if sub_end - sub_start <= _TIME_TOLERANCE:
                continue
            midpoint = (sub_start + sub_end) / 2.0
            if gap(midpoint) >= 0.0:
                inside_intervals.append((sub_start, sub_end))

    return _merge_intervals(inside_intervals)


def _sign_change_roots(
    gap,
    interval_start: float,
    interval_end: float,
    function: DistanceFunction,
    envelope_piece,
) -> List[float]:
    """Roots of the gap function inside an elementary interval."""
    times = _sample_times(interval_start, interval_end, function, envelope_piece)
    values = [gap(t) for t in times]
    roots: List[float] = []
    for (t_a, v_a), (t_b, v_b) in zip(zip(times, values), zip(times[1:], values[1:])):
        if v_a == 0.0:
            roots.append(t_a)
            continue
        if v_a * v_b < 0.0:
            try:
                roots.append(float(brentq(gap, t_a, t_b, xtol=1e-10)))
            except ValueError:  # pragma: no cover - defensive against flat brackets
                roots.append((t_a + t_b) / 2.0)
    deduplicated: List[float] = []
    for root in sorted(roots):
        if interval_start < root < interval_end and (
            not deduplicated or root - deduplicated[-1] > _TIME_TOLERANCE
        ):
            deduplicated.append(root)
    return deduplicated


def minimum_band_gap(
    function: DistanceFunction,
    envelope: Envelope,
    t_lo: float,
    t_hi: float,
    samples_per_interval: int = _SAMPLES_PER_INTERVAL,
) -> float:
    """Smallest value of ``function(t) − envelope(t)`` over the window.

    Useful for diagnostics ("how far from mattering is this object?") and for
    choosing band widths in the ablation benchmarks.  The result is
    approximate with the same sampling resolution as the band test.
    """
    boundaries = _elementary_boundaries(function, envelope, t_lo, t_hi)
    best = float("inf")
    for interval_start, interval_end in zip(boundaries, boundaries[1:]):
        if interval_end - interval_start <= _TIME_TOLERANCE:
            continue
        piece = envelope.piece_at((interval_start + interval_end) / 2.0)
        for t in _sample_times(
            interval_start, interval_end, function, piece, samples_per_interval
        ):
            gap = function.value(t) - piece.function.value(t)
            if gap < best:
                best = gap
    return best


def _sample_times(
    interval_start: float,
    interval_end: float,
    function: DistanceFunction,
    envelope_piece,
    samples: int = _SAMPLES_PER_INTERVAL,
) -> List[float]:
    """Sample grid for one elementary interval, including curve vertices."""
    span = interval_end - interval_start
    times = [
        interval_start + span * index / (samples - 1) for index in range(samples)
    ]
    for candidate_function in (function, envelope_piece.function):
        for piece in candidate_function.pieces:
            vertex = piece.curve.vertex_time
            if vertex is not None and interval_start < vertex < interval_end:
                times.append(vertex)
    times.sort()
    return times


def _merge_intervals(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge touching/overlapping intervals into a canonical disjoint list."""
    if not intervals:
        return []
    ordered = sorted(intervals)
    merged = [ordered[0]]
    for start, end in ordered[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end + 1e-7:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged
