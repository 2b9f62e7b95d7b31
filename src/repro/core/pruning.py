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
per-row sample grid (endpoints, curve vertices, and a fixed number of
interior points) and refined by bisection.  It is the largest layer of a
cold query, so :func:`band_intervals_batch` runs it columnwise for *many*
candidates against one envelope: the (candidate piece × envelope piece) rows
come from the packed piece columns in one ragged NumPy pass, closed-form
bounds decide most rows outright, and only the rest is sampled and bisected,
all candidates' brackets in one batch — and :func:`band_intervals_many`
does the same for many contexts at once.  The row loop that samples *every*
row, which this module is pinned against bit for bit, and the original
Brent's-method extractor live in :mod:`repro.reference.band`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..geometry.envelope import quadratic
from ..geometry.envelope.bulk import FunctionPack
from ..geometry.envelope.hyperbola import DistanceFunction, Hyperbola
from ..geometry.envelope.pieces import Envelope

from .tolerances import TIME_TOLERANCE as _TIME_TOLERANCE

#: Two boundaries closer than this make the scalar tolerance-deduplication
#: observable; the vectorized row builder refuses and the reference row
#: builder (``_band_rows``) handles the affected candidate instead.
_BOUNDARY_GUARD = 4.0 * _TIME_TOLERANCE
#: Interior sample points per elementary interval used to bracket band crossings.
_SAMPLES_PER_INTERVAL = 12
#: Slack of the closed-form row bounds, as a fraction of the magnitude of a
#: squared distance's terms: evaluating ``(a t + b) t + c`` is off by a few
#: ulps (~3e-16) of it, so bounds this loose hold for every computed sample.
_BOUND_SLACK = 1e-12

_TALLY = threading.local()


def band_tally() -> Tuple[int, int, int, int]:
    """``(rows, rows decided by bounds, rows refined on the sample grid,
    candidates on the scalar row builder)`` of the calling thread's band
    passes so far; monotone, like ``bulk.front_tally``."""
    return getattr(_TALLY, "totals", (0, 0, 0, 0))


def band_report(since: Tuple[int, int, int, int]) -> Dict[str, int]:
    """What the band passes did since an earlier :func:`band_tally` read."""
    names = ("rows", "bounded", "refined", "scalar")
    return {name: now - then for name, now, then in zip(names, band_tally(), since)}


def _count(*amounts: int) -> None:
    _TALLY.totals = tuple(old + new for old, new in zip(band_tally(), amounts))


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

    One-candidate form of :func:`band_intervals_batch`, which describes the
    computation; the batch returns exactly this list per function.

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

    The window is cut into *rows* on which the envelope and the candidate
    are one hyperbola each (:func:`_band_rows_vector`, columnwise).  Closed
    form bounds on the two curves decide most rows without a sample
    (:func:`_value_bounds`); the rest get the sample grid, and every
    candidate's bracketed sign changes are bisected in one batch, each
    candidate on its own step budget.  The result is bit-identical to
    :func:`repro.reference.band.band_intervals_batch`, which samples every
    row of every candidate in a per-candidate loop: the differential suite
    compares the two with ``==``, which is what proves the bounds sound.

    ``functions`` may be a :class:`FunctionPack`; it is read as columns.
    The one-context case of :func:`band_intervals_many`, as lists.

    Returns:
        One interval list per function, aligned with the input order.
    """
    return band_intervals_many([(functions, envelope, band_width, t_lo, t_hi)])[0].lists()


class BandColumns(NamedTuple):
    """One pass's band intervals as columns: candidate ``i``'s disjoint,
    time-ordered intervals are ``starts[offsets[i]:offsets[i + 1]]`` to
    ``ends[...]``."""

    offsets: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

    def lists(self) -> List[List[Tuple[float, float]]]:
        """Each candidate's ``(start, end)`` list, endpoints Python floats."""
        spans = list(zip(self.starts.tolist(), self.ends.tolist()))
        offsets = self.offsets.tolist()
        return [spans[start:stop] for start, stop in zip(offsets, offsets[1:])]


def band_intervals_many(
    passes: Sequence[Tuple[Sequence[DistanceFunction], Envelope, float, float, float]],
) -> List[BandColumns]:
    """:func:`band_intervals_batch` of many contexts in one refinement pass.

    Each ``(functions, envelope, band_width, t_lo, t_hi)`` pass cuts its
    rows and decides what its closed-form bounds can on its own; the
    undecided rows of every pass then share one sample grid, one bisection,
    one midpoint test and one sub-interval test, with the band width as a
    per-row column.  Bisection groups are (pass, candidate), so each
    candidate keeps its own step budget and every result is exactly the
    one pass's alone.  The in-band rows and sub-intervals of every pass are
    then merged by one sort and one run detection.

    Returns:
        One :class:`BandColumns` per pass, in order.
    """
    for _, _, band_width, t_lo, t_hi in passes:
        if band_width < 0:
            raise ValueError("band width must be non-negative")
        if t_hi < t_lo:
            raise ValueError(f"empty window [{t_lo}, {t_hi}]")
    # Every source of intervals as (owner, start, end) columns, the owner
    # a (pass, candidate) group; ``parts`` holds the undecided rows.
    owners, starts, ends = [np.zeros(0, dtype=np.int64)], [np.zeros(0)], [np.zeros(0)]
    parts, bases = [], []
    groups = 0
    for functions, envelope, band_width, t_lo, t_hi in passes:
        bases.append(groups)
        count = len(functions)
        groups += count
        if not count:
            continue
        if t_hi == t_lo:
            values = np.array([function.value(t_lo) for function in functions])
            inside = np.flatnonzero(envelope.value(t_lo) + band_width - values >= -_TIME_TOLERANCE)
            owners.append(inside + bases[-1])
            starts.append(np.full(inside.size, t_lo, dtype=float))
            ends.append(np.full(inside.size, t_hi, dtype=float))
            continue
        lo, hi, env_coeffs, fun_coeffs, group = _band_rows_vector(
            functions, envelope, t_lo, t_hi
        )
        group += bases[-1]
        # A row whose candidate stays under ``envelope + band``, or over it,
        # has a gap of one strict sign at every sample the grid would take:
        # no zero, no bracket, and a midpoint of that sign.  The sums mirror
        # ``_gap_grid`` (adding the band is monotone; a float difference has
        # the exact sign).
        env_low, env_high = _value_bounds(lo, hi, env_coeffs)
        fun_low, fun_high = _value_bounds(lo, hi, fun_coeffs)
        in_band = env_low + band_width > fun_high
        undecided = np.nonzero(~in_band & ~(env_high + band_width < fun_low))[0]
        _count(lo.size, lo.size - undecided.size, undecided.size, 0)
        owners.append(group[in_band])
        starts.append(lo[in_band])
        ends.append(hi[in_band])
        parts.append((
            lo[undecided], hi[undecided], env_coeffs[undecided], fun_coeffs[undecided],
            group[undecided], np.full(undecided.size, float(band_width)),
        ))
    if parts:
        lo, hi, env_coeffs, fun_coeffs, group, width = (np.concatenate(part) for part in zip(*parts))
        if lo.size:
            times = _row_sample_grid(lo, hi, env_coeffs, fun_coeffs)
            values = _gap_grid(times, env_coeffs, fun_coeffs, width[:, None])
            rows, roots = _refine_bracketed_roots(
                times, values, env_coeffs, fun_coeffs, width, lo, hi, group, groups
            )
            # Rows with no crossing are classified by one midpoint test ...
            in_band = _gap_at((lo + hi) / 2.0, env_coeffs, fun_coeffs, width[:, None]) >= 0.0
            in_band[rows] = False
            owners.append(group[in_band])
            starts.append(lo[in_band])
            ends.append(hi[in_band])
            # ... and the sub-intervals between a row's crossings by another.
            sub_row, sub_start, sub_end = _sub_intervals(rows, roots, lo, hi)
            sub_gaps = _gap_at(
                (sub_start + sub_end) / 2.0, env_coeffs[sub_row], fun_coeffs[sub_row],
                width[sub_row][:, None],
            )
            inside = (sub_end - sub_start > _TIME_TOLERANCE) & (sub_gaps >= 0.0)
            owners.append(group[sub_row[inside]])
            starts.append(sub_start[inside])
            ends.append(sub_end[inside])
    offsets, run_start, run_end = _merged_runs(owners, starts, ends, groups)
    bases.append(groups)
    return [
        BandColumns(
            offsets[base:stop + 1] - offsets[base],
            run_start[offsets[base]:offsets[stop]],
            run_end[offsets[base]:offsets[stop]],
        )
        for base, stop in zip(bases, bases[1:])
    ]


def is_within_band_sometime(
    function: DistanceFunction,
    envelope: Envelope,
    band_width: float,
    t_lo: float,
    t_hi: float,
) -> bool:
    """True when the function enters the band at some time in the window (UQ11 core)."""
    return bool(band_intervals(function, envelope, band_width, t_lo, t_hi))


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
    functions = list(functions)
    inside = band_intervals_batch(functions, envelope, band_width, t_lo, t_hi)
    survivors = [function for function, spans in zip(functions, inside) if spans]
    return survivors, PruningStatistics(len(functions), len(survivors))


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


def _base_band_rows(
    envelope: Envelope, t_lo: float, t_hi: float
) -> Optional[Tuple[np.ndarray, np.ndarray, bool]]:
    """Candidate-independent rows: envelope elementary intervals split at the
    owner's interior breakpoints.

    Returns ``(bounds, env_coeffs, tiled)``: row ``i`` spans
    ``bounds[i:i + 2]`` on the envelope curve ``env_coeffs[i]``, exactly as
    ``_band_rows`` derives it for a candidate without breakpoints in the
    window.  ``tiled`` says any midpoint inside a row reads that curve too
    (the envelope's and each owner's pieces tile without gap or overlap), so
    a candidate's breakpoints may cut the rows further.  ``None`` when the
    reference builder's tolerance de-duplication could be observed
    (boundaries within ``_BOUNDARY_GUARD``) or a lookup fails; every
    candidate then goes through ``_band_rows``, which raises/dedups as before.
    """
    interior = [t for t in envelope.critical_times if t_lo < t < t_hi]
    bounds = np.unique(np.array([t_lo, t_hi] + interior))
    if np.diff(bounds).min() <= _BOUNDARY_GUARD:
        return None
    marks: List[float] = [t_lo]
    env_curves: List[Hyperbola] = []
    tiled = True
    try:
        for interval_start, interval_end in zip(bounds[:-1], bounds[1:]):
            piece = envelope.piece_at((interval_start + interval_end) / 2.0)
            owner = piece.function
            cuts = owner.breakpoints(interval_start, interval_end) + [interval_end]
            for sub_start, sub_end in zip([interval_start] + cuts, cuts):
                if sub_end - sub_start <= _BOUNDARY_GUARD:
                    return None
                env_curves.append(owner.piece_at((sub_start + sub_end) / 2.0).curve)
            marks.extend(cuts)
            tiled = (
                tiled
                and piece.t_start <= interval_start
                and owner.t_start <= interval_start
                and owner.t_end >= interval_end
                and all(
                    after.t_start == before.t_end
                    for before, after in zip(owner.pieces, owner.pieces[1:])
                )
            )
    except ValueError:
        return None
    return (
        np.array(marks),
        np.array([[curve.a, curve.b, curve.c] for curve in env_curves]),
        tiled,
    )


def _keyed(group: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``(group, time)`` pairs as complex numbers: NumPy sorts and searches
    those lexicographically, real part first, and compares both exactly."""
    keys = np.empty(len(times), dtype=complex)
    keys.real, keys.imag = group, times
    return keys


def _band_rows_vector(
    functions: Sequence[DistanceFunction],
    envelope: Envelope,
    t_lo: float,
    t_hi: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every candidate's rows from the packed piece columns, in one pass.

    Returns ``(lo, hi, env_coeffs, fun_coeffs, group)`` with the floats
    ``_band_rows`` produces per candidate; ``group[i]`` is the position of
    row ``i``'s candidate, whose rows are contiguous and in time order.

    A candidate that is one curve over the window repeats the base rows.
    One with breakpoints merges them into the base bounds — one sort over
    (candidate, time), bitwise duplicates dropped, consecutive pairs as rows
    — and reads its curve by ``DistanceFunction.piece_at``'s rule (the first
    piece whose end is ``>=`` the row midpoint, clamped).  A candidate goes
    to ``_band_rows``, alone, only where that builder's de-duplication could
    be observed or its lookups differ: two distinct boundaries within
    ``_BOUNDARY_GUARD``, a function that does not span the window or whose
    piece ends are out of order, base rows that are not ``tiled``.
    """
    pack = FunctionPack.of(functions)
    count = len(pack)
    vector = np.zeros(count, dtype=bool)
    blocks = []
    base = _base_band_rows(envelope, t_lo, t_hi)
    if base is not None:
        bounds, base_env, tiled = base
        first, last = pack.offsets[:-1], pack.offsets[1:] - 1

        def holders(pieces: np.ndarray) -> np.ndarray:
            """How many of ``pieces`` each function has."""
            return np.bincount(pack.owner[pieces], minlength=count)

        def coefficients(pieces: np.ndarray) -> np.ndarray:
            return np.stack([pack.a[pieces], pack.b[pieces], pack.c[pieces]], axis=1)

        starts = pack.starts[pack.followers]
        breaks = pack.followers[(t_lo < starts) & (starts < t_hi)]
        spans = (pack.starts[first] <= t_lo) & (pack.ends[last] >= t_hi)
        inner_ends = np.nonzero((t_lo < pack.ends) & (pack.ends < t_hi))[0]
        single = spans & (holders(breaks) == 0) & (holders(inner_ends) == 0)
        unordered = pack.followers[pack.ends[pack.followers] < pack.ends[pack.followers - 1]]
        piecewise = spans & ~single & (holders(unordered) == 0) & tiled

        members = np.nonzero(single)[0]
        if members.size:
            curve = pack.piece_index_at((t_lo + t_hi) / 2.0)[members]
            rows = len(bounds) - 1
            blocks.append((
                np.tile(bounds[:-1], members.size),
                np.tile(bounds[1:], members.size),
                np.tile(base_env, (members.size, 1)),
                np.repeat(coefficients(curve), rows, axis=0),
                np.repeat(members, rows),
            ))
        members = np.nonzero(piecewise)[0]
        if members.size:
            breaks = breaks[piecewise[pack.owner[breaks]]]
            keys = np.sort(np.concatenate([
                _keyed(np.repeat(members, len(bounds)), np.tile(bounds, members.size)),
                _keyed(pack.owner[breaks], pack.starts[breaks]),
            ]))
            keys = keys[np.append(True, keys[1:] != keys[:-1])]
            group, times = keys.real.astype(np.int64), keys.imag
            paired = group[1:] == group[:-1]
            crowded = paired & (times[1:] - times[:-1] <= _BOUNDARY_GUARD)
            piecewise[group[1:][crowded]] = False
            paired &= piecewise[group[1:]]
            lo, hi, group = times[:-1][paired], times[1:][paired], group[1:][paired]
            curve = np.searchsorted(
                _keyed(pack.owner, pack.ends), _keyed(group, (lo + hi) / 2.0)
            )
            blocks.append((
                lo,
                hi,
                base_env[np.searchsorted(bounds, lo, side="right") - 1],
                coefficients(np.minimum(curve, last[group])),
                group,
            ))
        vector = single | piecewise
    scalar = np.nonzero(~vector)[0].tolist()
    _count(0, 0, 0, len(scalar))
    cut = np.array([
        (lo, hi, env.a, env.b, env.c, fun.a, fun.b, fun.c, position)
        for position in scalar
        for lo, hi, env, fun in _band_rows(pack.function(position), envelope, t_lo, t_hi)
    ]).reshape(-1, 9)
    blocks.append((cut[:, 0], cut[:, 1], cut[:, 2:5], cut[:, 5:8], cut[:, 8].astype(np.int64)))
    return tuple(np.concatenate(column) for column in zip(*blocks))


def _value_bounds(
    lo: np.ndarray, hi: np.ndarray, coeffs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Bounds on every value ``quadratic.distance`` computes inside each row.

    ``quadratic.extrema`` gives the squared extrema over the row (its ends
    and the vertex inside); loosening them by ``_BOUND_SLACK`` of the terms'
    magnitude covers the rounding of any evaluation in the row, and the
    floored square root is monotone, so ``low <= value <= high`` holds for
    the floats the sample grid computes, not just for the exact curve.
    """
    a, b, c = coeffs.T
    low, high = quadratic.extrema(a, b, c, lo, hi)
    slack = _BOUND_SLACK * quadratic.magnitude(a, b, c, np.maximum(np.abs(lo), np.abs(hi)))
    return np.sqrt(quadratic.floored(low - slack)), np.sqrt(quadratic.floored(high + slack))


def _merged_runs(
    owners: List[np.ndarray], starts: List[np.ndarray], ends: List[np.ndarray], count: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(offsets, starts, ends)`` of ``count`` owners' intervals, merged.

    The pieces are disjoint and none is empty, so one sort by (owner,
    start) puts each owner's in time order, and an interval joins the run
    before it when it starts within ``1e-7`` of that run's end (the last
    end, as the ends ascend): the reference's ``_merge_intervals`` rule.
    """
    owner, start, end = (np.concatenate(column) for column in (owners, starts, ends))
    order = np.lexsort((start, owner))
    owner, start, end = owner[order], start[order], end[order]
    opens, closes = np.ones((2, owner.size), dtype=bool)
    opens[1:] = closes[:-1] = (owner[1:] != owner[:-1]) | (start[1:] > end[:-1] + 1e-7)
    offsets = np.searchsorted(owner[opens], np.arange(count + 1))
    return offsets, start[opens], end[closes]


def _sub_intervals(
    rows: np.ndarray, roots: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(row, start, end)`` of the pieces each row's sorted ``roots`` cut
    it into: ``lo`` to the first root, root to root, the last root to ``hi``."""
    crossing, first, counts = np.unique(rows, return_index=True, return_counts=True)
    heads = first + np.arange(crossing.size)
    # Root ``j`` of the ``g``-th crossing row ends piece ``j + g`` and starts the next.
    shifted = np.arange(roots.size) + np.repeat(np.arange(crossing.size), counts)
    sub_start = np.empty(roots.size + crossing.size)
    sub_end = np.empty_like(sub_start)
    sub_start[heads], sub_start[shifted + 1] = lo[crossing], roots
    sub_end[shifted], sub_end[heads + counts] = roots, hi[crossing]
    return np.repeat(crossing, counts + 1), sub_start, sub_end


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
    vertices = [
        quadratic.interior_vertex(coeffs[:, 0], coeffs[:, 1], lo, hi)[:, None]
        for coeffs in (env_coeffs, fun_coeffs)
    ]
    return np.sort(np.concatenate([grid, *vertices], axis=1), axis=1)


def _gap_grid(
    times: np.ndarray,
    env_coeffs: np.ndarray,
    fun_coeffs: np.ndarray,
    band_width,
) -> np.ndarray:
    """Gap values ``envelope + band − function`` over a (rows × samples) grid;
    ``band_width`` is one width or a (rows × 1) column of them."""
    return (
        quadratic.distance(*env_coeffs.T[:, :, None], times)
        + band_width
        - quadratic.distance(*fun_coeffs.T[:, :, None], times)
    )


def _gap_at(
    times: np.ndarray,
    env_coeffs: np.ndarray,
    fun_coeffs: np.ndarray,
    band_width: float,
) -> np.ndarray:
    """Gap values at one time per row (or a broadcastable batch of rows)."""
    return _gap_grid(times[:, None], env_coeffs, fun_coeffs, band_width)[:, 0]


def _refine_bracketed_roots(
    times: np.ndarray,
    values: np.ndarray,
    env_coeffs: np.ndarray,
    fun_coeffs: np.ndarray,
    band_width: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    group_of_row: np.ndarray,
    group_count: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every row's roots strictly inside it, sorted and deduplicated.

    The roots are :func:`_bisect_brackets`'; a root within
    ``TIME_TOLERANCE`` of the last one kept in its row is dropped.  A root
    that far from its predecessor is kept, and one that close to a kept
    predecessor is dropped, so only a chain of three or more close roots
    needs the rule applied in order.

    Returns:
        ``(rows, roots)`` columns, sorted by row and then root.
    """
    rows, roots = _bisect_brackets(
        times, values, env_coeffs, fun_coeffs, band_width, group_of_row, group_count
    )
    inside = (lo[rows] < roots) & (roots < hi[rows])
    rows, roots = rows[inside], roots[inside]
    order = np.lexsort((roots, rows))
    rows, roots = rows[order], roots[order]
    close = np.zeros(rows.size, dtype=bool)
    close[1:] = (rows[1:] == rows[:-1]) & (roots[1:] - roots[:-1] <= _TIME_TOLERANCE)
    keep = ~close
    for index in (np.flatnonzero(close[1:] & close[:-1]) + 1).tolist():
        kept = index - 1
        while not keep[kept]:
            kept -= 1
        keep[index] = roots[index] - roots[kept] > _TIME_TOLERANCE
    return rows[keep], roots[keep]


def _bisect_brackets(
    times: np.ndarray,
    values: np.ndarray,
    env_coeffs: np.ndarray,
    fun_coeffs: np.ndarray,
    band_width,
    group_of_row: np.ndarray,
    group_count: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized bisection of every bracketed sign change of the gap grid.

    The rows belong to several candidates (``group_of_row``) refined in
    one pass: each candidate keeps its *own* step count (derived from its
    own widest bracket, exactly as a single-candidate call computes it) and
    a bracket freezes once its candidate's budget is exhausted, so the
    refined roots are bit-identical to per-candidate calls while every
    bisection step evaluates all candidates' brackets in one batch.

    ``band_width`` is one width, or one per row.

    Returns:
        ``(rows, roots)``: the sample times where the gap is exactly zero,
        then the refined brackets, unsorted and possibly outside their row.
    """
    left = values[:, :-1]
    exact_rows, exact_cols = np.nonzero(left == 0.0)
    rows_idx, cols = np.nonzero(left * values[:, 1:] < 0.0)
    t_a = times[rows_idx, cols]
    t_b = times[rows_idx, cols + 1]
    g_a = values[rows_idx, cols]
    groups = group_of_row[rows_idx]
    widest = np.zeros(group_count)
    np.maximum.at(widest, groups, t_b - t_a)
    per_group_steps = np.minimum(
        _BISECTION_STEPS,
        np.maximum(1, np.ceil(np.log2(np.maximum(widest, 1e-12) / 1e-13)).astype(np.int64)),
    )
    steps_per_bracket = per_group_steps[groups]
    # The brackets' coefficient columns, gathered once for every step:
    # row 0 the envelope's, row 1 the candidate's, so one
    # ``quadratic.distance`` evaluates both curves.
    a, b, c = np.stack([env_coeffs[rows_idx], fun_coeffs[rows_idx]]).transpose(2, 0, 1)
    a, b, c = (np.ascontiguousarray(column) for column in (a, b, c))
    band = np.broadcast_to(band_width, group_of_row.shape)[rows_idx]
    fewest = int(steps_per_bracket.min(initial=_BISECTION_STEPS))
    for iteration in range(int(steps_per_bracket.max(initial=0))):
        t_mid = 0.5 * (t_a + t_b)
        env_mid, fun_mid = quadratic.distance(a, b, c, t_mid)
        g_mid = env_mid + band - fun_mid
        go_left = g_a * g_mid <= 0.0
        if iteration < fewest:
            move_right = ~go_left
        else:
            # A bracket freezes once its candidate's budget is spent.
            active = steps_per_bracket > iteration
            go_left &= active
            move_right = active ^ go_left
        np.putmask(t_b, go_left, t_mid)
        np.putmask(t_a, move_right, t_mid)
        np.putmask(g_a, move_right, g_mid)
    return (
        np.concatenate([exact_rows, rows_idx]),
        np.concatenate([times[exact_rows, exact_cols], 0.5 * (t_a + t_b)]),
    )


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
