"""Difference trajectories ``TR_iq = Tr_i − Tr_q`` (Section 3.2).

The convolution transformation turns the "uncertain NN of an uncertain
query" problem into a crisp problem about the *relative* motion of every
object with respect to the query: the distance of the difference trajectory
from the origin is the hyperbolic distance function whose lower envelope
drives everything else.  This module builds those distance functions from
pairs of trajectories, handling multi-segment trajectories by aligning the
two objects' sample times.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.envelope import quadratic
from ..geometry.envelope.bulk import FunctionPack
from ..geometry.envelope.hyperbola import DistanceFunction, Hyperbola, HyperbolaPiece
from .trajectory import Trajectory

from ..core.tolerances import TIME_TOLERANCE as _TIME_TOLERANCE

#: Distinct piece marks closer than this to each other or to the window ends
#: make the scalar mark deduplication order dependent; the bulk constructor
#: refuses such a candidate and the scalar path handles it instead.
_EDGE_MARGIN = 8.0 * _TIME_TOLERANCE

#: Per-thread running total behind :func:`scalar_fallback_count`.
_TALLY = threading.local()


def difference_distance_function(
    trajectory: Trajectory,
    query: Trajectory,
    t_lo: float,
    t_hi: float,
) -> DistanceFunction:
    """Distance function of ``trajectory`` relative to ``query`` over a window.

    For every maximal sub-interval of ``[t_lo, t_hi]`` on which both
    trajectories move along a single segment, the squared distance between
    their expected locations is a quadratic in time; the resulting
    piecewise-hyperbolic curve is exactly the ``d_iq(t)`` of Section 3.2.

    Args:
        trajectory: the candidate object ``Tr_i``.
        query: the query object ``Tr_q``.
        t_lo: window start (must be covered by both trajectories).
        t_hi: window end (must be covered by both trajectories).

    Returns:
        The :class:`DistanceFunction` labelled with ``trajectory.object_id``.
    """
    if t_hi < t_lo:
        raise ValueError(f"empty window [{t_lo}, {t_hi}]")
    if not trajectory.covers_interval(t_lo, t_hi):
        raise ValueError(
            f"trajectory {trajectory.object_id!r} does not cover [{t_lo}, {t_hi}]"
        )
    if not query.covers_interval(t_lo, t_hi):
        raise ValueError(
            f"query trajectory {query.object_id!r} does not cover [{t_lo}, {t_hi}]"
        )

    breakpoints = _aligned_breakpoints(trajectory, query, t_lo, t_hi)
    pieces: List[HyperbolaPiece] = []
    for interval_start, interval_end in zip(breakpoints, breakpoints[1:]):
        if interval_end - interval_start <= _TIME_TOLERANCE and len(breakpoints) > 2:
            continue
        reference = interval_start
        midpoint = (interval_start + interval_end) / 2.0
        pos_i = trajectory.position_at(reference)
        pos_q = query.position_at(reference)
        vel_i = trajectory.velocity_at(midpoint)
        vel_q = query.velocity_at(midpoint)
        curve = Hyperbola.from_relative_motion(
            pos_i.x - pos_q.x,
            pos_i.y - pos_q.y,
            vel_i.dx - vel_q.dx,
            vel_i.dy - vel_q.dy,
            reference,
        )
        pieces.append(HyperbolaPiece(interval_start, interval_end, curve))
    if not pieces:
        # Degenerate zero-length window: a constant function at the current distance.
        pos_i = trajectory.position_at(t_lo)
        pos_q = query.position_at(t_lo)
        curve = Hyperbola.from_relative_motion(
            pos_i.x - pos_q.x, pos_i.y - pos_q.y, 0.0, 0.0, t_lo
        )
        pieces = [HyperbolaPiece(t_lo, t_hi, curve)]
    return DistanceFunction(trajectory.object_id, pieces)


def difference_distance_functions(
    trajectories: Sequence[Trajectory],
    query: Trajectory,
    t_lo: float,
    t_hi: float,
    skip_query: bool = True,
) -> List[DistanceFunction]:
    """Distance functions of a collection of trajectories relative to a query.

    Args:
        trajectories: candidate objects.
        query: the query trajectory.
        t_lo: window start.
        t_hi: window end.
        skip_query: drop the query's own entry when it appears in
            ``trajectories`` (matching the paper's "for each i ≠ q").

    Returns:
        One :class:`DistanceFunction` per (non-query) trajectory.
    """
    functions = []
    for trajectory in trajectories:
        if skip_query and trajectory.object_id == query.object_id:
            continue
        functions.append(difference_distance_function(trajectory, query, t_lo, t_hi))
    return functions


def difference_function_pack(
    trajectories: Sequence[Trajectory],
    query: Trajectory,
    t_lo: float,
    t_hi: float,
    skip_query: bool = True,
    store=None,
) -> FunctionPack:
    """Distance functions of many candidates as one :class:`FunctionPack`:
    the one-query case of :func:`difference_function_packs`."""
    return difference_function_packs([(trajectories, query)], t_lo, t_hi, skip_query, store)[0]


def difference_function_packs(
    groups: Sequence[Tuple[Sequence[Trajectory], Trajectory]],
    t_lo: float,
    t_hi: float,
    skip_query: bool = True,
    store=None,
) -> List[FunctionPack]:
    """One :class:`FunctionPack` per ``(candidates, query)`` group, in one pass.

    One ragged NumPy pass over the columnar pack builds the hyperbola
    coefficients of every (query, candidate) row of every group, however
    many of its samples fall inside the window.  Per row the aligned marks
    are the union of the candidate's and the query's interior sample times
    (bitwise-equal times collapse, as they do on a fleet reporting on one
    shared cadence); every (row, piece) pair then takes its reference
    position and midpoint velocity on both sides from the leg
    :meth:`Trajectory.segment_at` would return — the first leg of positive
    duration whose tolerance-widened span contains the time — with the
    scalar builder's exact float expressions.  A row without interior
    samples is the zero-marks case of the same pass.  Its columns become
    its group's pack: no function object is made here.

    Rows the pass cannot provably replicate are built by
    :func:`difference_distance_function` individually and spliced into
    their group's pack, so each pack equals the pack of
    :func:`difference_distance_functions`: stale columns, a window the
    candidate or the query does not cover, *distinct* marks closer than
    ``_EDGE_MARGIN`` to each other or to the window ends (where the scalar
    deduplication is order dependent), or a time no positive-duration leg
    contains.  :func:`scalar_fallback_count` tallies them, and a fresh
    pack's ``materialized`` counts its own.

    Args:
        store: a :class:`~repro.trajectories.columnar.ColumnarStore` (or any
            object with ``pack()``, ``slot_of`` and ``holds``); when
            ``None`` every candidate takes the scalar builder.  A query the
            store does not hold is read from its own columns.
    """
    groups = [
        (
            [
                trajectory
                for trajectory in trajectories
                if not (skip_query and trajectory.object_id == query.object_id)
            ],
            query,
        )
        for trajectories, query in groups
    ]
    columns = None
    if store is not None and t_hi - t_lo > 2.0 * _EDGE_MARGIN:
        columns = _build_from_columns(groups, t_lo, t_hi, store)
    if columns is None:
        columns = (np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),) * 5
    positions, sizes, *columns = columns
    rows = np.cumsum([0] + [len(candidates) for candidates, _ in groups])
    counts = np.zeros(rows[-1], dtype=np.int64)
    counts[positions] = sizes
    pieces = np.concatenate(([0], np.cumsum(counts)))
    packs = []
    for (candidates, query), first, stop in zip(groups, rows[:-1], rows[1:]):
        own = counts[first:stop].copy()
        values = [column[pieces[first]:pieces[stop]] for column in columns]
        built = {
            position: difference_distance_function(candidates[position], query, t_lo, t_hi)
            for position in np.flatnonzero(own == 0).tolist()
        }
        if built:
            _TALLY.count = scalar_fallback_count() + len(built)
            scalar = FunctionPack(list(built.values()))
            # Before the columnar pieces of the next candidates, in order.
            at = np.repeat(np.cumsum(own)[list(built)], np.diff(scalar.offsets))
            theirs = (scalar.starts, scalar.ends, scalar.a, scalar.b, scalar.c)
            values = [np.insert(column, at, more) for column, more in zip(values, theirs)]
            own[list(built)] = np.diff(scalar.offsets)
        packs.append(FunctionPack.from_columns(
            [candidate.object_id for candidate in candidates],
            np.concatenate(([0], np.cumsum(own))),
            *values,
            built,
        ))
    return packs


def scalar_fallback_count() -> int:
    """Candidates the calling thread's bulk calls handed to the scalar builder.

    Monotone per thread; a caller brackets a call with two reads to learn
    how many of its candidates missed the columnar pass.
    """
    return getattr(_TALLY, "count", 0)


def _build_from_columns(
    groups: Sequence[Tuple[Sequence[Trajectory], Trajectory]],
    t_lo: float,
    t_hi: float,
    store,
) -> Optional[Tuple[np.ndarray, ...]]:
    """The array pass: ``(positions, piece counts, starts, ends, a, b, c)``
    of every (query, candidate) row it can replicate, in row order, or
    ``None``; a row's position counts the candidates of earlier groups."""
    pack = store.pack()
    ts, xs, ys = pack.ts, pack.xs, pack.ys
    positions: List[int] = []
    row_group: List[int] = []
    slots: List[int] = []
    # Each query's samples: its pack slice, or its own columns after the pack.
    query_first: List[int] = []
    query_last: List[int] = []
    extracted = [(ts, xs, ys)]
    taken = ts.size
    query_marks = []
    offset = 0
    for group, (candidates, query) in enumerate(groups):
        if query.covers_interval(t_lo, t_hi):
            for position, candidate in enumerate(candidates):
                if store.holds(candidate):
                    positions.append(offset + position)
                    row_group.append(group)
                    slots.append(store.slot_of(candidate.object_id))
        offset += len(candidates)
        if store.holds(query):
            query_first.append(int(pack.starts[store.slot_of(query.object_id)]))
        else:
            extracted.append(query.columns)
            query_first.append(taken)
            taken += extracted[-1][0].size
        query_last.append(query_first[-1] + len(query) - 1)
        query_marks.append(np.array(query.breakpoints_in(t_lo, t_hi), dtype=float))
    if not positions:
        return None
    slots = np.array(slots, dtype=np.int64)
    row_group = np.array(row_group, dtype=np.int64)
    count = slots.size
    first = pack.starts[slots]
    last = first + pack.lengths[slots] - 1
    # ``covers_interval`` of the scalar path (the window is non-empty here).
    ok = (ts[first] - _TIME_TOLERANCE <= t_lo) & (t_hi <= ts[last] + _TIME_TOLERANCE)

    # Each candidate's own samples strictly inside the window, as
    # ``breakpoints_in`` selects them: ``t_lo + tol < t < t_hi - tol``.
    inner_first, inner_stop = _ragged_bisect(
        ts,
        first,
        last + 1,
        np.array(
            [
                [np.nextafter(t_lo + _TIME_TOLERANCE, np.inf)],
                [t_hi - _TIME_TOLERANCE],
            ]
        ),
    )
    inner_count = np.maximum(inner_stop - inner_first, 0)

    # Sorted union per row; equal times collapse to one mark.
    own_total = int(inner_count.sum())
    own_index = np.arange(own_total) + np.repeat(
        inner_first - (np.cumsum(inner_count) - inner_count), inner_count
    )
    rows = np.arange(count)
    members = np.bincount(row_group, minlength=len(groups))
    mark_counts = np.array([own.size for own in query_marks], dtype=np.int64)
    times = np.concatenate(
        [ts[own_index]] + [np.tile(own, size) for own, size in zip(query_marks, members)]
    )
    time_rows = np.concatenate(
        (np.repeat(rows, inner_count), np.repeat(rows, mark_counts[row_group]))
    )
    order = np.lexsort((times, time_rows))
    times, time_rows = times[order], time_rows[order]
    gap = times[1:] - times[:-1]
    same_row = time_rows[1:] == time_rows[:-1]
    ok[time_rows[1:][same_row & (gap != 0.0) & (gap < _EDGE_MARGIN)]] = False
    ok[
        time_rows[
            ~((t_lo + _EDGE_MARGIN < times) & (times < t_hi - _EDGE_MARGIN))
        ]
    ] = False
    keep = np.ones(times.size, dtype=bool)
    keep[1:] = ~(same_row & (gap == 0.0))
    marks, mark_rows = times[keep], time_rows[keep]

    # Flat pieces: row r owns ``marks_in_r + 1`` consecutive entries, so mark
    # number u of the flat mark list starts piece ``u + r + 1`` and ends
    # piece ``u + r``.
    piece_counts = np.bincount(mark_rows, minlength=count) + 1
    piece_rows = np.repeat(rows, piece_counts)
    refs = np.full(piece_rows.size, float(t_lo))
    ends = np.full(piece_rows.size, float(t_hi))
    mark_piece = np.arange(marks.size) + mark_rows
    refs[mark_piece + 1] = marks
    ends[mark_piece] = marks
    mids = (refs + ends) / 2.0
    # The scalar builder drops sliver pieces; the margins above leave none.
    ok[piece_rows[ends - refs <= _TIME_TOLERANCE]] = False

    query_columns = extracted[0] if len(extracted) == 1 else tuple(
        np.concatenate(column) for column in zip(*extracted)
    )
    piece_groups = row_group[piece_rows]
    times = np.stack((refs, mids))
    sides = []
    for columns, leg_first, leg_last in (
        ((ts, xs, ys), first[piece_rows], last[piece_rows]),
        (
            query_columns,
            np.array(query_first, dtype=np.int64)[piece_groups],
            np.array(query_last, dtype=np.int64)[piece_groups],
        ),
    ):
        ref_legs, mid_legs = _first_containing_leg(
            columns[0], leg_first, leg_last, times
        )
        missing = (ref_legs < 0) | (mid_legs < 0)
        ok[piece_rows[missing]] = False
        # Placeholder legs keep the arithmetic in bounds; the row is dropped.
        ref_legs[missing] = mid_legs[missing] = 0
        sides.append(_position_and_velocity(*columns, ref_legs, refs, mid_legs))
    (x_i, y_i, vx_i, vy_i), (x_q, y_q, vx_q, vy_q) = sides

    a, b, c = quadratic.from_relative_motion(x_i - x_q, y_i - y_q, vx_i - vx_q, vy_i - vy_q, refs)

    built, keep = np.flatnonzero(ok), ok[piece_rows]
    pieces = (column[keep] for column in (refs, ends, a, b, c))
    return (np.array(positions, dtype=np.int64)[built], piece_counts[built], *pieces)


def _ragged_bisect(ts: np.ndarray, lo, hi, targets, shift: float = 0.0) -> np.ndarray:
    """Per row, the first index ``i`` in ``[lo, hi)`` with ``ts[i] + shift >= target``.

    ``hi`` where there is none; ``lo``, ``hi`` and ``targets`` broadcast.
    ``ts`` must be non-decreasing on every row's range — each is one
    object's slice of a packed time column — which makes ``ts + shift``
    non-decreasing there too; the comparison is evaluated on exactly that
    float expression, as the scalar lookup does.
    """
    found = np.broadcast_to(lo, np.broadcast(lo, hi, targets).shape).copy()
    step = 1 << int(np.max(hi - lo, initial=0)).bit_length()
    while step > 1:
        step >>= 1
        probe = found + step
        fits = probe <= hi
        below = ts[np.where(fits, probe, hi) - 1] + shift < targets
        found = np.where(fits & below, probe, found)
    return found


def _first_containing_leg(ts: np.ndarray, first, last, times: np.ndarray) -> np.ndarray:
    """Per row, the leg ``Trajectory.segment_at`` finds by its containment rule.

    Leg ``k`` joins samples ``k`` and ``k + 1`` of ``ts``; a row's legs are
    ``first .. last - 1``.  Returns the first leg of positive duration whose
    span widened by the time tolerance contains the row's time, or ``-1``
    when no leg does (the scalar lookup then falls back to the last leg).
    """
    leg = _ragged_bisect(ts, first + 1, last, times, _TIME_TOLERANCE) - 1
    while True:
        contains = (leg < last) & (ts[leg] - _TIME_TOLERANCE <= times)
        degenerate = contains & ~(
            ts[np.minimum(leg + 1, last)] - ts[leg] > _TIME_TOLERANCE
        )
        if not degenerate.any():
            return np.where(contains, leg, -1)
        leg = leg + degenerate


def _position_and_velocity(ts, xs, ys, ref_legs, refs, mid_legs):
    """Elementwise ``SpaceTimeSegment.position_at(ref)`` and ``.velocity``."""
    start, stop = ref_legs, ref_legs + 1
    # A placeholder leg may have no duration; its row is discarded.
    with np.errstate(divide="ignore", invalid="ignore"):
        fraction = np.minimum(
            1.0, np.maximum(0.0, (refs - ts[start]) / (ts[stop] - ts[start]))
        )
        x = xs[start] + fraction * (xs[stop] - xs[start])
        y = ys[start] + fraction * (ys[stop] - ys[start])
        start, stop = mid_legs, mid_legs + 1
        duration = ts[stop] - ts[start]
        return x, y, (xs[stop] - xs[start]) / duration, (ys[stop] - ys[start]) / duration


def _aligned_breakpoints(
    trajectory: Trajectory, query: Trajectory, t_lo: float, t_hi: float
) -> List[float]:
    """Union of both trajectories' sample times inside the window, plus endpoints."""
    times = [t_lo, t_hi]
    times.extend(trajectory.breakpoints_in(t_lo, t_hi))
    times.extend(query.breakpoints_in(t_lo, t_hi))
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
