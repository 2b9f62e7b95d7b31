"""Reference corridor radius: the per-query, per-fixed-time scalar kernel.

The serving stack computes probe radii with
:func:`repro.engine.filtering.corridor_probe_bulk`; this is the
implementation it replaced, kept as the oracle the bulk kernel is pinned
against bit for bit (``tests/engine/test_bulk_kernels.py``) and the baseline
``benchmarks/bench_columnar.py`` races it against.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..trajectories.mod import MovingObjectsDatabase
from ..trajectories.trajectory import Trajectory


class TrajectoryArrays:
    """Per-trajectory sample arrays memoized for vectorized polyline math.

    ``np.interp`` over the raw sample columns evaluates a piecewise-linear
    trajectory at many times in one call; extracting those columns from the
    ``TrajectorySample`` tuples dominates when done per query, so one
    instance is shared across a whole batch of reference calls.

    This is the pre-columnar extraction: every column is read sample by
    sample off the ``TrajectorySample`` tuples, never from the MOD's
    :class:`~repro.trajectories.columnar.ColumnarStore` — which is what
    makes :meth:`flat` an independent check of that store's layout.
    """

    def __init__(self) -> None:
        self._columns: dict = {}
        self._flat: Optional[tuple] = None
        self._flat_revision: int = -1

    def columns(
        self, trajectory: Trajectory
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(times, xs, ys)`` sample columns of a trajectory (cached by id)."""
        cached = self._columns.get(trajectory.object_id)
        if cached is None:
            cached = (
                np.array([sample.t for sample in trajectory.samples]),
                np.array([sample.x for sample in trajectory.samples]),
                np.array([sample.y for sample in trajectory.samples]),
            )
            self._columns[trajectory.object_id] = cached
        return cached

    def positions(
        self, trajectory: Trajectory, times: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Expected (x, y) positions at several times."""
        sample_t, sample_x, sample_y = self.columns(trajectory)
        return (
            np.interp(times, sample_t, sample_x),
            np.interp(times, sample_t, sample_y),
        )

    def invalidate(self, object_id: object) -> None:
        """Drop one trajectory's cached columns (after an update)."""
        self._columns.pop(object_id, None)
        self._flat = None

    def flat(self, mod: MovingObjectsDatabase) -> tuple:
        """Flattened sample columns of the whole MOD, cached by its revision.

        Returns:
            ``(ids, starts, lengths, times, xs, ys)`` where ``times[starts[i]
            : starts[i] + lengths[i]]`` are object ``ids[i]``'s sample times.
        """
        if self._flat is not None and self._flat_revision == mod.revision:
            return self._flat
        ids: List[object] = []
        lengths: List[int] = []
        times: List[np.ndarray] = []
        xs: List[np.ndarray] = []
        ys: List[np.ndarray] = []
        for trajectory in mod:
            sample_t, sample_x, sample_y = self.columns(trajectory)
            ids.append(trajectory.object_id)
            lengths.append(len(sample_t))
            times.append(sample_t)
            xs.append(sample_x)
            ys.append(sample_y)
        length_array = np.array(lengths, dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(length_array)[:-1]))
        self._flat = (
            ids,
            starts,
            length_array,
            np.concatenate(times),
            np.concatenate(xs),
            np.concatenate(ys),
        )
        self._flat_revision = mod.revision
        return self._flat


def max_pairwise_distance(
    first: Trajectory,
    second: Trajectory,
    t_lo: float,
    t_hi: float,
    arrays: Optional[TrajectoryArrays] = None,
) -> float:
    """Exact maximum distance between two expected polylines over a window.

    The squared distance between two piecewise-linear motions is piecewise
    quadratic with non-negative leading coefficient, so the maximum over the
    window is attained at one of the merged segment breakpoints.
    """
    if arrays is None:
        arrays = TrajectoryArrays()
    first_t = arrays.columns(first)[0]
    second_t = arrays.columns(second)[0]
    times = np.unique(
        np.clip(np.concatenate((first_t, second_t, [t_lo, t_hi])), t_lo, t_hi)
    )
    first_x, first_y = arrays.positions(first, times)
    second_x, second_y = arrays.positions(second, times)
    return float(
        np.sqrt(np.max((first_x - second_x) ** 2 + (first_y - second_y) ** 2))
    )


def _batched_window_max_distances(
    mod: MovingObjectsDatabase,
    query: Trajectory,
    t_lo: float,
    t_hi: float,
    arrays: TrajectoryArrays,
) -> float:
    """Smallest over fully-covering candidates of the max distance to the query.

    This is the *pinned scalar oracle* of
    :func:`repro.engine.filtering.corridor_probe_bulk`'s per-query body —
    the two implementations must agree to the bit (the oracle tests enforce
    it), so any change to a tolerance or a clamp here must be mirrored
    there, and vice versa.

    One NumPy pass over the MOD's flattened sample columns: the pairwise
    maximum is attained at a merged breakpoint, so per candidate it is the
    max over (a) the candidate's own in-window samples against the
    interpolated query position and (b) a handful of fixed times — the window
    endpoints and the query's in-window breakpoints — at which every
    candidate is evaluated by vectorized segment interpolation.  Candidates
    that do not fully cover the window are skipped (``inf``); the scalar
    fallback in :func:`conservative_corridor_radius` handles them.
    """
    ids, starts, lengths, all_t, all_x, all_y = arrays.flat(mod)
    query_t, query_x, query_y = arrays.columns(query)
    ends = starts + lengths - 1
    covers = (all_t[starts] <= t_lo + 1e-9) & (all_t[ends] >= t_hi - 1e-9)
    is_query = np.array([object_id == query.object_id for object_id in ids])
    eligible = covers & ~is_query
    if not np.any(eligible):
        return float("inf")

    # (a) candidates' own in-window breakpoints vs the interpolated query.
    in_window = (all_t >= t_lo - 1e-9) & (all_t <= t_hi + 1e-9)
    query_x_at = np.interp(all_t, query_t, query_x)
    query_y_at = np.interp(all_t, query_t, query_y)
    squared = (all_x - query_x_at) ** 2 + (all_y - query_y_at) ** 2
    squared = np.where(in_window, squared, -np.inf)
    per_candidate = np.maximum.reduceat(squared, starts)

    # (b) fixed times: window endpoints plus the query's in-window breakpoints.
    fixed_times = [t_lo, t_hi] + [
        float(t) for t in query_t if t_lo + 1e-9 < t < t_hi - 1e-9
    ]
    for t in fixed_times:
        below = np.add.reduceat((all_t < t).astype(np.int64), starts)
        segment = np.clip(below, 1, np.maximum(lengths - 1, 1))
        hi_idx = starts + segment
        lo_idx = hi_idx - 1
        t0, t1 = all_t[lo_idx], all_t[hi_idx]
        span = t1 - t0
        fraction = np.where(span > 0, np.clip((t - t0) / np.where(span > 0, span, 1.0), 0.0, 1.0), 0.0)
        cand_x = all_x[lo_idx] + fraction * (all_x[hi_idx] - all_x[lo_idx])
        cand_y = all_y[lo_idx] + fraction * (all_y[hi_idx] - all_y[lo_idx])
        qx = float(np.interp(t, query_t, query_x))
        qy = float(np.interp(t, query_t, query_y))
        per_candidate = np.maximum(
            per_candidate, (cand_x - qx) ** 2 + (cand_y - qy) ** 2
        )

    per_candidate = np.where(eligible, per_candidate, np.inf)
    return float(np.sqrt(np.min(per_candidate)))


def conservative_corridor_radius(
    mod: MovingObjectsDatabase,
    query_id: object,
    t_lo: float,
    t_hi: float,
    band_width: float,
    arrays: Optional[TrajectoryArrays] = None,
) -> float:
    """A probe radius that provably retains every 4r-band survivor.

    Returns ``U + band_width`` where ``U`` is the smallest over candidates of
    the candidate's maximum distance to the query during the window — an
    upper bound on the envelope's maximum, hence on how far from the query's
    expected polyline a band survivor can ever be.

    Only candidates covering the *whole* window can bound the envelope
    everywhere, so the bound is the (vectorized) min over those; when none
    exists the radius is ``inf``, meaning "do not filter" — a partial
    candidate's overlap maximum says nothing about the envelope outside its
    overlap, so no finite radius would be provably safe.
    """
    if arrays is None:
        arrays = TrajectoryArrays()
    query = mod.get(query_id)
    tightest = _batched_window_max_distances(mod, query, t_lo, t_hi, arrays)
    return tightest + band_width
