"""Index-backed candidate filtering for batched query preparation.

Before a query's difference distance functions are built (the expensive
O(N log N) part of preparation), the engine shrinks the candidate set with a
box probe against a spatio-temporal index.  Correctness hinges on the probe
radius: the filter may only drop objects that provably cannot survive the
4r pruning band.

The bound used here follows from the envelope being a pointwise minimum:
for *any* candidate ``i``, ``envelope(t) <= d_i(t)`` for all ``t``, so

    max_t envelope(t)  <=  min_i max_t d_i(t)  =:  U.

A band survivor ``j`` must satisfy ``min_t d_j(t) <= max_t envelope(t) + W``
for band width ``W``, hence must come within ``U + W`` of the query's
expected polyline at some time.  Since each pairwise squared distance is
piecewise quadratic in time with non-negative leading coefficient, its
maximum over the window is attained at a segment breakpoint, so ``U`` is
computable exactly from the trajectories' merged breakpoint times — no
envelope construction required.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.tolerances import TIME_TOLERANCE
from ..trajectories.mod import MovingObjectsDatabase


#: Fixed times evaluated per (times × samples) intermediate in the bulk
#: corridor kernel; bounds peak memory for breakpoint-heavy queries.
_FIXED_TIME_CHUNK = 32


def corridor_probe_bulk(
    mod: MovingObjectsDatabase,
    query_ids: Sequence[object],
    t_lo: float,
    t_hi: float,
    band_widths: Sequence[float],
) -> np.ndarray:
    """Provably-safe corridor radii for many queries in one vectorized pass.

    For each query it returns ``U + band_width`` where ``U`` is the
    smallest, over candidates fully covering ``[t_lo, t_hi]``, of the
    candidate's maximum distance to the query during the window (``inf``
    when no candidate covers the window — "do not filter": a partial
    candidate's overlap maximum says nothing about the envelope outside its
    overlap).  The candidates' own breakpoints go through one (objects ×
    in-window samples) reduction and the query-side fixed times through one
    (times × objects) reduction; values are bit-identical to the per-query
    loop of :func:`repro.reference.corridor.conservative_corridor_radius`.

    Only the window's samples differ from query to query: every sample
    before the window lies below every fixed time and every one after it
    above, so one pass per batch counts the former per object and finds
    each object's in-window run, and each query then reads those runs alone.

    Args:
        mod: the moving objects database.
        query_ids: ids of the query trajectories (must be stored).
        t_lo: shared window start.
        t_hi: shared window end (not before ``t_lo``).
        band_widths: per-query band widths, aligned with ``query_ids``.
    """
    if len(band_widths) != len(query_ids):
        raise ValueError("band_widths must align with query_ids")
    if t_hi < t_lo:
        raise ValueError(f"empty window [{t_lo}, {t_hi}]")
    store = mod.columnar()
    ids, starts, lengths, all_t, all_x, all_y, _ = store.pack()
    radii = np.empty(len(query_ids))
    if not ids:
        radii.fill(np.inf)
        return radii
    ends = starts + lengths - 1
    covers = (all_t[starts] <= t_lo + TIME_TOLERANCE) & (
        all_t[ends] >= t_hi - TIME_TOLERANCE
    )
    in_window = (all_t >= t_lo - TIME_TOLERANCE) & (all_t <= t_hi + TIME_TOLERANCE)
    interior = np.maximum(lengths - 1, 1)
    # Each object's times are sorted, so its in-window samples are one run.
    before = np.add.reduceat((all_t < t_lo - TIME_TOLERANCE).astype(np.int64), starts)
    held = np.add.reduceat(in_window.astype(np.int64), starts) > 0
    inside = np.flatnonzero(in_window)
    runs = np.searchsorted(inside, starts[held])
    window_t, window_x, window_y = all_t[inside], all_x[inside], all_y[inside]
    for position, query_id in enumerate(query_ids):
        eligible = covers.copy()
        eligible[store.slot_of(query_id)] = False
        if not np.any(eligible):
            radii[position] = np.inf
            continue
        query_t, query_x, query_y = store.columns(query_id)

        # (a) candidates' own in-window breakpoints vs the interpolated
        # query; an object without one reads -inf.
        per_candidate = np.full(len(ids), -np.inf)
        if inside.size:
            squared = (window_x - np.interp(window_t, query_t, query_x)) ** 2 + (
                window_y - np.interp(window_t, query_t, query_y)
            ) ** 2
            per_candidate[held] = np.maximum.reduceat(squared, runs)

        # (b) fixed times — window endpoints plus the query's in-window
        # breakpoints — evaluated for every candidate at once.  Chunking
        # the fixed-time axis bounds the (times × samples) intermediates'
        # memory; the running np.maximum keeps the result identical.
        fixed_all = np.array(
            [t_lo, t_hi]
            + [
                float(t)
                for t in query_t
                if t_lo + TIME_TOLERANCE < t < t_hi - TIME_TOLERANCE
            ]
        )
        for chunk_start in range(0, fixed_all.size, _FIXED_TIME_CHUNK):
            fixed = fixed_all[chunk_start:chunk_start + _FIXED_TIME_CHUNK]
            below = np.repeat(before[None, :], fixed.size, axis=0)
            if inside.size:
                below[:, held] += np.add.reduceat(
                    (window_t[None, :] < fixed[:, None]).astype(np.int64), runs, axis=1
                )
            segment = np.clip(below, 1, interior)
            hi_idx = starts[None, :] + segment
            lo_idx = hi_idx - 1
            t0, t1 = all_t[lo_idx], all_t[hi_idx]
            span = t1 - t0
            fraction = np.where(
                span > 0,
                np.clip(
                    (fixed[:, None] - t0) / np.where(span > 0, span, 1.0), 0.0, 1.0
                ),
                0.0,
            )
            cand_x = all_x[lo_idx] + fraction * (all_x[hi_idx] - all_x[lo_idx])
            cand_y = all_y[lo_idx] + fraction * (all_y[hi_idx] - all_y[lo_idx])
            query_fx = np.interp(fixed, query_t, query_x)
            query_fy = np.interp(fixed, query_t, query_y)
            fixed_sq = (cand_x - query_fx[:, None]) ** 2 + (
                cand_y - query_fy[:, None]
            ) ** 2
            per_candidate = np.maximum(per_candidate, fixed_sq.max(axis=0))

        per_candidate = np.where(eligible, per_candidate, np.inf)
        radii[position] = float(np.sqrt(np.min(per_candidate))) + band_widths[
            position
        ]
    return radii


def filter_candidates(
    mod: MovingObjectsDatabase,
    index,
    query_id: object,
    t_lo: float,
    t_hi: float,
    band_width: float,
    corridor: Optional[float] = None,
) -> Tuple[List[object], float]:
    """Index-filtered candidate ids for one query, with the probe radius used.

    The one-member case of
    :meth:`~repro.trajectories.mod.MovingObjectsDatabase.candidates_within_corridor`.
    The probe radius comes from the columnar bulk kernel
    (:func:`corridor_probe_bulk`) unless the caller already computed it.

    Returns:
        ``(candidate_ids, corridor_radius)``; ids are in the store's filter
        order (by ``str``, ties in store insertion order) and never include
        the query itself.  When no safe finite radius
        exists (no candidate covers the whole window), the filter degrades
        to "keep everything" with an infinite radius.
    """
    if corridor is None:
        corridor = float(
            corridor_probe_bulk(mod, [query_id], t_lo, t_hi, [band_width])[0]
        )
    (candidates,) = mod.candidates_within_corridor([query_id], [corridor], t_lo, t_hi, index)
    return candidates, corridor
