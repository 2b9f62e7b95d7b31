"""The 4r pruning band (Section 3.2) and band-membership computations.

A trajectory can have non-zero probability of being the nearest neighbor of
the query at time ``t`` only if its distance function lies within ``4r`` of
the lower envelope at ``t`` (for the paper's equal-radius uniform model;
``2·(r_i + r_q)`` in general — see
:func:`repro.uncertainty.within_distance.effective_pruning_radius`).  Every
query category of Section 4 reduces to questions about when a distance
function is inside that band, so this module provides:

* interval extraction — the exact sub-intervals of the query window during
  which a function is inside the band;
* the existential / universal / duration predicates built on top of them;
* whole-collection pruning with the statistics reported by Figure 13.

The band test compares two hyperbolas offset by a constant, which is not a
polynomial comparison; sign changes of the gap function are bracketed on a
per-piece sample grid (endpoints, curve vertices, and a fixed number of
interior points).  Band-interval extraction is the hot path of every batched
predicate, so :func:`band_intervals` evaluates the whole sample grid with
NumPy in one pass and refines only the bracketed sign changes with a
vectorized bisection; :func:`band_intervals_batch` extends the same scheme
to *many* candidates against one envelope (one grid pass, one grouped
bisection), which is what :class:`~repro.core.queries.QueryContext` runs
per prepared query.  The original per-piece Brent's-method implementation
and the per-candidate row loop this module's batched builder is pinned
against bit for bit live in :mod:`repro.reference.band`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.envelope.hyperbola import DistanceFunction, Hyperbola
from ..geometry.envelope.pieces import Envelope

from .tolerances import FULL_WINDOW_SLACK, TIME_TOLERANCE as _TIME_TOLERANCE

#: Two boundaries closer than this make the scalar tolerance-deduplication
#: observable; the vectorized row builder refuses and the reference row
#: builder (``_band_rows``) handles the affected candidate instead.
_BOUNDARY_GUARD = 4.0 * _TIME_TOLERANCE
#: Interior sample points per elementary interval used to bracket band crossings.
_SAMPLES_PER_INTERVAL = 12


@dataclass(frozen=True, slots=True)
class PruningStatistics:
    """Outcome of pruning a candidate set against the band (Figure 13)."""

    total_candidates: int
    surviving_candidates: int

    @property
    def pruned_candidates(self) -> int:
        """Number of candidates eliminated."""
        return self.total_candidates - self.surviving_candidates

    @property
    def survival_ratio(self) -> float:
        """Fraction of candidates that still require probability integration."""
        if self.total_candidates == 0:
            return 0.0
        return self.surviving_candidates / self.total_candidates

    @property
    def pruning_ratio(self) -> float:
        """Fraction of candidates pruned away."""
        return 1.0 - self.survival_ratio


def band_intervals(
    function: DistanceFunction,
    envelope: Envelope,
    band_width: float,
    t_lo: float,
    t_hi: float,
) -> List[Tuple[float, float]]:
    """Sub-intervals of ``[t_lo, t_hi]`` where the function is inside the band.

    The band at time ``t`` is ``[envelope(t), envelope(t) + band_width]``;
    since every distance function lies on or above the envelope, membership
    is simply ``function(t) <= envelope(t) + band_width``.

    The window is cut into *rows* on which both the envelope owner and the
    candidate are single hyperbolas, the gap function is evaluated on the
    whole sample grid in one NumPy pass, and only bracketed sign changes are
    refined (vectorized bisection over all brackets simultaneously).

    Args:
        function: the candidate's distance function.
        envelope: the level-1 lower envelope.
        band_width: the pruning band width (``4r`` in the paper's model).
        t_lo: window start.
        t_hi: window end.

    Returns:
        Disjoint, time-ordered ``(start, end)`` intervals (possibly empty).
    """
    return band_intervals_batch([function], envelope, band_width, t_lo, t_hi)[0]


def band_intervals_batch(
    functions: Sequence[DistanceFunction],
    envelope: Envelope,
    band_width: float,
    t_lo: float,
    t_hi: float,
) -> List[List[Tuple[float, float]]]:
    """Band intervals of *many* candidates against one envelope in one pass.

    The hot loop of every UQ3x answer runs :func:`band_intervals` once per
    candidate; this kernel concatenates every candidate's rows into one
    (rows × samples) grid, evaluates the gap function and the no-crossing
    midpoint tests in a single NumPy pass, and refines each candidate's
    bracketed sign changes with the same per-candidate bisection the scalar
    call uses — so the returned interval lists are bit-identical to calling
    :func:`band_intervals` per function.

    The row construction itself is array-oriented: the
    candidate-independent boundary grid (envelope criticals plus owner
    breakpoints) is built once and shared by every single-curve candidate,
    and the crossing-subinterval classification runs as one batched gap
    evaluation.  Candidates the vectorized builder cannot provably replicate
    (piecewise candidates, boundaries inside the tolerance guard) fall back
    to the reference row builder (``_band_rows``) *per candidate*, so the
    output is always bit-identical to
    :func:`repro.reference.band.band_intervals_batch` — the per-candidate
    row loop the differential suite compares against.

    Returns:
        One interval list per function, aligned with the input order.
    """
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
    lo, hi, env_coeffs, fun_coeffs, row_slices = _band_rows_vector(
        functions, envelope, t_lo, t_hi
    )
    if lo.size == 0:
        return [[] for _ in functions]
    group_of_row, midpoint_gaps, roots_by_row = _refine_rows(
        lo, hi, env_coeffs, fun_coeffs, band_width, row_slices
    )
    return _classify_rows_batch(
        lo,
        hi,
        env_coeffs,
        fun_coeffs,
        band_width,
        roots_by_row,
        midpoint_gaps,
        row_slices,
        group_of_row,
    )


def is_within_band_sometime(
    function: DistanceFunction,
    envelope: Envelope,
    band_width: float,
    t_lo: float,
    t_hi: float,
) -> bool:
    """True when the function enters the band at some time in the window (UQ11 core)."""
    return bool(band_intervals(function, envelope, band_width, t_lo, t_hi))


def is_within_band_always(
    function: DistanceFunction,
    envelope: Envelope,
    band_width: float,
    t_lo: float,
    t_hi: float,
) -> bool:
    """True when the function stays inside the band throughout the window (UQ12 core)."""
    intervals = band_intervals(function, envelope, band_width, t_lo, t_hi)
    covered = sum(end - start for start, end in intervals)
    return covered >= (t_hi - t_lo) - FULL_WINDOW_SLACK


def time_within_band(
    function: DistanceFunction,
    envelope: Envelope,
    band_width: float,
    t_lo: float,
    t_hi: float,
) -> float:
    """Total duration during which the function is inside the band (UQ13 core)."""
    intervals = band_intervals(function, envelope, band_width, t_lo, t_hi)
    return sum(end - start for start, end in intervals)


def prune_by_band(
    functions: Sequence[DistanceFunction],
    envelope: Envelope,
    band_width: float,
    t_lo: float,
    t_hi: float,
) -> Tuple[List[DistanceFunction], PruningStatistics]:
    """Split candidates into band-survivors and pruned objects.

    Returns:
        ``(survivors, statistics)`` where survivors preserve the input order.
    """
    survivors = [
        function
        for function in functions
        if is_within_band_sometime(function, envelope, band_width, t_lo, t_hi)
    ]
    return survivors, PruningStatistics(len(functions), len(survivors))


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


# ----------------------------------------------------------------------
# Vectorized internals.
# ----------------------------------------------------------------------

#: Bisection iterations for bracket refinement; each halves every bracket,
#: so 60 passes shrink any window far below the 1e-10 scalar ``xtol``.
_BISECTION_STEPS = 60


def _band_rows(
    function: DistanceFunction, envelope: Envelope, t_lo: float, t_hi: float
) -> List[Tuple[float, float, Hyperbola, Hyperbola]]:
    """Cut the window into rows on which envelope and candidate are single curves.

    Elementary boundaries already include the candidate's breakpoints and the
    envelope's critical times; rows additionally split at the envelope
    *owner's* interior breakpoints so each row pairs exactly one envelope
    hyperbola with one candidate hyperbola.
    """
    boundaries = _elementary_boundaries(function, envelope, t_lo, t_hi)
    rows: List[Tuple[float, float, Hyperbola, Hyperbola]] = []
    for interval_start, interval_end in zip(boundaries, boundaries[1:]):
        if interval_end - interval_start <= _TIME_TOLERANCE:
            continue
        piece = envelope.piece_at((interval_start + interval_end) / 2.0)
        owner = piece.function
        marks = (
            [interval_start]
            + owner.breakpoints(interval_start, interval_end)
            + [interval_end]
        )
        for sub_start, sub_end in zip(marks, marks[1:]):
            if sub_end - sub_start <= _TIME_TOLERANCE:
                continue
            midpoint = (sub_start + sub_end) / 2.0
            rows.append(
                (
                    sub_start,
                    sub_end,
                    owner.piece_at(midpoint).curve,
                    function.piece_at(midpoint).curve,
                )
            )
    return rows


def _is_single_curve(function: DistanceFunction, t_lo: float, t_hi: float) -> bool:
    """True when the candidate behaves as ONE hyperbola over the whole window.

    ``_band_rows`` consults the candidate twice per row: its breakpoints
    split the elementary intervals, and ``piece_at`` picks the curve at each
    row midpoint.  When the function spans the window, has no interior
    breakpoints, and no piece ends strictly inside the window, every midpoint
    resolves to the same piece — so the candidate-independent base rows plus
    one tiled coefficient triple reproduce ``_band_rows`` exactly.
    """
    if function.t_start > t_lo or function.t_end < t_hi:
        return False
    if len(function.pieces) == 1:
        return True
    if function.breakpoints(t_lo, t_hi):
        return False
    return not any(t_lo < piece.t_end < t_hi for piece in function.pieces)


def _base_band_rows(
    envelope: Envelope, t_lo: float, t_hi: float
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Candidate-independent rows: envelope elementary intervals split at the
    owner's interior breakpoints.

    For a candidate without breakpoints in the window, these are exactly the
    ``(lo, hi, env_curve)`` triples ``_band_rows`` derives — the candidate
    only contributes its own (constant) curve column.  Returns ``None``
    whenever the reference builder's tolerance-deduplication could become
    observable (boundaries within ``_BOUNDARY_GUARD`` of each other) or the
    envelope does not cover the window; callers then fall back to
    ``_band_rows`` per candidate, which raises/dedups exactly as before.
    """
    interior = [t for t in envelope.critical_times if t_lo < t < t_hi]
    bounds = np.unique(np.array([t_lo, t_hi] + interior))
    if np.diff(bounds).min() <= _BOUNDARY_GUARD:
        return None
    starts: List[float] = []
    ends: List[float] = []
    env_curves: List[Hyperbola] = []
    for interval_start, interval_end in zip(bounds[:-1], bounds[1:]):
        try:
            piece = envelope.piece_at((interval_start + interval_end) / 2.0)
        except ValueError:
            return None
        owner = piece.function
        marks = (
            [interval_start]
            + owner.breakpoints(interval_start, interval_end)
            + [interval_end]
        )
        if any(b - a <= _BOUNDARY_GUARD for a, b in zip(marks, marks[1:])):
            return None
        for sub_start, sub_end in zip(marks, marks[1:]):
            midpoint = (sub_start + sub_end) / 2.0
            starts.append(sub_start)
            ends.append(sub_end)
            env_curves.append(owner.piece_at(midpoint).curve)
    return (
        np.array(starts),
        np.array(ends),
        np.array([[curve.a, curve.b, curve.c] for curve in env_curves]),
    )


def _band_rows_vector(
    functions: Sequence[DistanceFunction],
    envelope: Envelope,
    t_lo: float,
    t_hi: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, List[Tuple[int, int]]]:
    """Array-oriented row construction for a whole candidate batch.

    Single-curve candidates share the base rows of ``_base_band_rows`` and
    contribute one broadcast coefficient triple each; everything else (and
    every candidate, when the base rows are unavailable) goes through the
    reference ``_band_rows`` builder so the assembled arrays carry exactly
    the floats the scalar kernel would produce.
    """
    base = _base_band_rows(envelope, t_lo, t_hi)
    if base is not None:
        base_lo, base_hi, base_env = base
        window_mid = (t_lo + t_hi) / 2.0
    lo_blocks: List[np.ndarray] = []
    hi_blocks: List[np.ndarray] = []
    env_blocks: List[np.ndarray] = []
    fun_blocks: List[np.ndarray] = []
    row_slices: List[Tuple[int, int]] = []
    total = 0
    for function in functions:
        if base is not None and _is_single_curve(function, t_lo, t_hi):
            curve = function.piece_at(window_mid).curve
            count = base_lo.size
            lo_blocks.append(base_lo)
            hi_blocks.append(base_hi)
            env_blocks.append(base_env)
            fun_blocks.append(
                np.broadcast_to(np.array([curve.a, curve.b, curve.c]), (count, 3))
            )
        else:
            rows = _band_rows(function, envelope, t_lo, t_hi)
            count = len(rows)
            if count:
                lo_blocks.append(np.array([row[0] for row in rows]))
                hi_blocks.append(np.array([row[1] for row in rows]))
                env_blocks.append(
                    np.array([[row[2].a, row[2].b, row[2].c] for row in rows])
                )
                fun_blocks.append(
                    np.array([[row[3].a, row[3].b, row[3].c] for row in rows])
                )
        row_slices.append((total, total + count))
        total += count
    if total == 0:
        empty = np.empty(0)
        return empty, empty, np.empty((0, 3)), np.empty((0, 3)), row_slices
    return (
        np.concatenate(lo_blocks),
        np.concatenate(hi_blocks),
        np.concatenate(env_blocks),
        np.concatenate(fun_blocks),
        row_slices,
    )


def _classify_rows_batch(
    lo: np.ndarray,
    hi: np.ndarray,
    env_coeffs: np.ndarray,
    fun_coeffs: np.ndarray,
    band_width: float,
    roots_by_row: dict,
    midpoint_gaps: np.ndarray,
    row_slices: List[Tuple[int, int]],
    group_of_row: np.ndarray,
) -> List[List[Tuple[float, float]]]:
    """Assemble every candidate's intervals with ONE batched sub-midpoint pass.

    Bit-identical to running :func:`repro.reference.band._classify_rows`
    per candidate: crossing-free
    rows reuse the already-computed midpoint gaps, and the crossing rows'
    sub-interval midpoints are evaluated in a single ``_gap_at`` call whose
    elementwise arithmetic matches the per-row broadcasts.  Interval order
    within a candidate is irrelevant because ``_merge_intervals`` sorts.
    """
    buckets: List[List[Tuple[float, float]]] = [[] for _ in row_slices]
    rows_with_roots = [
        (row_index, roots) for row_index, roots in roots_by_row.items() if roots
    ]
    has_roots = np.zeros(lo.size, dtype=bool)
    for row_index, _ in rows_with_roots:
        has_roots[row_index] = True
    for row_index in np.nonzero(~has_roots & (midpoint_gaps >= 0.0))[0].tolist():
        buckets[int(group_of_row[row_index])].append((lo[row_index], hi[row_index]))
    if rows_with_roots:
        sub_row: List[int] = []
        sub_start: List[float] = []
        sub_end: List[float] = []
        for row_index, roots in rows_with_roots:
            marks = [lo[row_index]] + roots + [hi[row_index]]
            for mark_start, mark_end in zip(marks, marks[1:]):
                sub_row.append(row_index)
                sub_start.append(mark_start)
                sub_end.append(mark_end)
        sub_row_arr = np.array(sub_row, dtype=np.int64)
        start_arr = np.array(sub_start)
        end_arr = np.array(sub_end)
        sub_gaps = _gap_at(
            (start_arr + end_arr) / 2.0,
            env_coeffs[sub_row_arr],
            fun_coeffs[sub_row_arr],
            band_width,
        )
        kept = (end_arr - start_arr > _TIME_TOLERANCE) & (sub_gaps >= 0.0)
        for index in np.nonzero(kept)[0].tolist():
            group = int(group_of_row[sub_row_arr[index]])
            # Index the Python lists, not the arrays: refined roots are
            # Python floats and row bounds are np.float64, and the per-row
            # classifier emits each mark with its original type.
            buckets[group].append((sub_start[index], sub_end[index]))
    return [_merge_intervals(bucket) for bucket in buckets]


def _row_sample_grid(
    lo: np.ndarray,
    hi: np.ndarray,
    env_coeffs: np.ndarray,
    fun_coeffs: np.ndarray,
    samples: int = _SAMPLES_PER_INTERVAL,
) -> np.ndarray:
    """Per-row sorted sample times: an even grid plus the two curve vertices."""
    fractions = np.linspace(0.0, 1.0, samples)
    grid = lo[:, None] + (hi - lo)[:, None] * fractions[None, :]
    columns = [grid]
    for coeffs in (env_coeffs, fun_coeffs):
        a, b = coeffs[:, 0], coeffs[:, 1]
        non_degenerate = np.abs(a) > 1e-12
        denominator = np.where(non_degenerate, 2.0 * a, 1.0)
        vertex = np.where(non_degenerate, -b / denominator, lo)
        vertex = np.where((vertex > lo) & (vertex < hi), vertex, lo)
        columns.append(vertex[:, None])
    return np.sort(np.concatenate(columns, axis=1), axis=1)


def _quadratic_sqrt(times: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``sqrt(max(0, a t² + b t + c))`` with per-row coefficients broadcast."""
    a = coeffs[:, 0:1]
    b = coeffs[:, 1:2]
    c = coeffs[:, 2:3]
    return np.sqrt(np.maximum((a * times + b) * times + c, 0.0))


def _gap_grid(
    times: np.ndarray,
    env_coeffs: np.ndarray,
    fun_coeffs: np.ndarray,
    band_width: float,
) -> np.ndarray:
    """Gap values ``envelope + band − function`` over a (rows × samples) grid."""
    return (
        _quadratic_sqrt(times, env_coeffs)
        + band_width
        - _quadratic_sqrt(times, fun_coeffs)
    )


def _gap_at(
    times: np.ndarray,
    env_coeffs: np.ndarray,
    fun_coeffs: np.ndarray,
    band_width: float,
) -> np.ndarray:
    """Gap values at one time per row (or a broadcastable batch of rows)."""
    return _gap_grid(times[:, None], env_coeffs, fun_coeffs, band_width)[:, 0]


def _refine_rows(
    lo: np.ndarray,
    hi: np.ndarray,
    env_coeffs: np.ndarray,
    fun_coeffs: np.ndarray,
    band_width: float,
    row_slices: List[Tuple[int, int]],
) -> Tuple[np.ndarray, np.ndarray, dict]:
    """Grid evaluation and root refinement of every candidate's rows at once.

    Returns:
        ``(group_of_row, midpoint_gaps, roots_by_row)``: each row's candidate,
        its gap at the row midpoint, and its refined crossings.
    """
    group_of_row = np.empty(lo.size, dtype=np.int64)
    for group, (start, end) in enumerate(row_slices):
        group_of_row[start:end] = group

    times = _row_sample_grid(lo, hi, env_coeffs, fun_coeffs)
    values = _gap_grid(times, env_coeffs, fun_coeffs, band_width)
    # Rows with no crossing are classified in one vectorized midpoint test.
    midpoint_gaps = _gap_at((lo + hi) / 2.0, env_coeffs, fun_coeffs, band_width)
    roots_by_row = _refine_bracketed_roots(
        times,
        values,
        env_coeffs,
        fun_coeffs,
        band_width,
        lo,
        hi,
        group_of_row,
        len(row_slices),
    )
    return group_of_row, midpoint_gaps, roots_by_row


def _refine_bracketed_roots(
    times: np.ndarray,
    values: np.ndarray,
    env_coeffs: np.ndarray,
    fun_coeffs: np.ndarray,
    band_width: float,
    lo: np.ndarray,
    hi: np.ndarray,
    group_of_row: np.ndarray,
    group_count: int,
) -> dict:
    """Vectorized bisection of every bracketed sign change of the gap grid.

    The rows belong to several candidates (``group_of_row``) refined in
    one pass: each candidate keeps its *own* step count (derived from its
    own widest bracket, exactly as a single-candidate call computes it) and
    a bracket freezes once its candidate's budget is exhausted, so the
    refined roots are bit-identical to per-candidate calls while every
    bisection step evaluates all candidates' brackets in one batch.

    Returns:
        ``{row_index: sorted deduplicated roots strictly inside the row}``.
    """
    left = values[:, :-1]
    right = values[:, 1:]
    bracketed = left * right < 0.0
    exact = left == 0.0

    roots_by_row: dict = {}

    def _record(row_index: int, root: float) -> None:
        if not lo[row_index] < root < hi[row_index]:
            return
        row_roots = roots_by_row.setdefault(row_index, [])
        row_roots.append(root)

    exact_rows, exact_cols = np.nonzero(exact)
    for row_index, col in zip(exact_rows.tolist(), exact_cols.tolist()):
        _record(row_index, float(times[row_index, col]))

    rows_idx, cols = np.nonzero(bracketed)
    if rows_idx.size:
        t_a = times[rows_idx, cols].copy()
        t_b = times[rows_idx, cols + 1].copy()
        g_a = values[rows_idx, cols].copy()
        env_b = env_coeffs[rows_idx]
        fun_b = fun_coeffs[rows_idx]
        widths = t_b - t_a
        groups = group_of_row[rows_idx]
        widest = np.zeros(group_count)
        np.maximum.at(widest, groups, widths)
        per_group_steps = np.minimum(
            _BISECTION_STEPS,
            np.maximum(
                1,
                np.ceil(np.log2(np.maximum(widest, 1e-12) / 1e-13)).astype(
                    np.int64
                ),
            ),
        )
        steps_per_bracket = per_group_steps[groups]
        for iteration in range(int(steps_per_bracket.max())):
            active = steps_per_bracket > iteration
            t_mid = 0.5 * (t_a + t_b)
            g_mid = _gap_at(t_mid, env_b, fun_b, band_width)
            go_left = g_a * g_mid <= 0.0
            move_right = active & ~go_left
            t_b = np.where(active & go_left, t_mid, t_b)
            t_a = np.where(move_right, t_mid, t_a)
            g_a = np.where(move_right, g_mid, g_a)
        refined = 0.5 * (t_a + t_b)
        for row_index, root in zip(rows_idx.tolist(), refined.tolist()):
            _record(row_index, float(root))

    for row_index, row_roots in roots_by_row.items():
        row_roots.sort()
        deduplicated: List[float] = []
        for root in row_roots:
            if not deduplicated or root - deduplicated[-1] > _TIME_TOLERANCE:
                deduplicated.append(root)
        roots_by_row[row_index] = deduplicated
    return roots_by_row


# ----------------------------------------------------------------------
# Scalar internals.
# ----------------------------------------------------------------------


def _elementary_boundaries(
    function: DistanceFunction, envelope: Envelope, t_lo: float, t_hi: float
) -> List[float]:
    """Envelope critical times and function breakpoints restricted to the window."""
    times = [t_lo, t_hi]
    times.extend(t for t in envelope.critical_times if t_lo < t < t_hi)
    times.extend(function.breakpoints(t_lo, t_hi))
    times.sort()
    boundaries: List[float] = []
    for t in times:
        if not boundaries or t - boundaries[-1] > _TIME_TOLERANCE:
            boundaries.append(t)
    if boundaries[-1] < t_hi - _TIME_TOLERANCE:
        boundaries.append(t_hi)
    boundaries[0] = t_lo
    boundaries[-1] = t_hi
    return boundaries


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
