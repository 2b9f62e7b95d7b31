"""The kinetic front: one output-sensitive kernel for levels 1..k.

The scalar envelope machinery (the plain ``LE_Alg`` recursion over
``merge``/``env2`` and the exclusion cascade over it, kept in
:mod:`repro.reference.envelope`) is the semantic ground truth of the
reproduction; this kernel is an *accelerated re-derivation* of it, never a
reinterpretation.  The contract, enforced by the differential suite in
``tests/property/test_envelope_differential.py``, is **bit-identity**: piece
boundaries and owners equal the scalar output with ``==``.

The front keeps the owners of levels 1..k and advances from event to event
over the window's *contenders* only: a closed-form bound on every function's
values, slot by slot, cuts those that stay too far above level k+1 to own a
level or meet an owner anywhere the walk looks.  The crossings of every
contender piece with the other contenders are solved in one closed-form NumPy
pass (``quadratic.roots``, the floats of the scalar ``quadratic.crossing_times``)
and the next event is the earliest an owner reads, so a window costs one pass
over the pieces plus the pairs of its few contenders, not O(n) per function
that ever owns a level.  Two functions exchange ranks only where they are
equal, so an event is a swap of adjacent levels or the replacement of the
last one; the boundaries it emits are the same doubles the scalar recursion
derives through its merges.

Where the scalar's behaviour depends on things the front does not track —
tolerance deduplication of close critical times, square-rooted values that
tie bitwise at a midpoint — a guard fires.  A guard is a fact about one
owner near one time, or about one boundary the front emits (two functions,
owners or not, close enough in value there to cross within the tolerance:
the scalar's sub-envelopes would merge that crossing's time with the
boundary's), so it dirties a time span, not the window: the dirty elementary
intervals between two clean events form a **slab** that the caller's scalar
algorithm recomputes, and ``Envelope``'s own coalescing stitches it to its
clean neighbours.  That algorithm is ``le_alg``, alone or under the cascade,
which skips the rows buried under a slab's envelope, so a slab costs the rows
that can reach it whatever its width, and a window takes any number of them.
After a dirty span the front re-ranks from values, so nothing it missed
inside the span survives it.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from collections import abc
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...core.tolerances import RELATIVE_JUMP, TIME_TOLERANCE
from . import quadratic
from .hyperbola import DistanceFunction, Hyperbola, HyperbolaPiece
from .pieces import Envelope, EnvelopePiece

#: Two events closer than this make the scalar algorithms' tolerance
#: deduplication observable.
_GUARD = 4.0 * TIME_TOLERANCE

#: A pair of roots of one quadratic closer than this is a (near-)double
#: root — the curves touch rather than cross; a root this close to an end of
#: its pieces' overlap can be dropped by the scalar's open-interval filter.
_TANGENT_GUARD = 8.0 * TIME_TOLERANCE

#: Shallow-crossing guard.  The scalar merges compare *square-rooted* values
#: at interval midpoints; where the squared-difference slope ``|2·Δa·t + Δb|``
#: at a crossing is below this fraction of the curves' squared magnitude, the
#: distances round to one double at nearby midpoints and the scalar's
#: first-argument tie-break takes over.  (Ties need a squared gap within
#: ~4.4e-16 of the magnitude and midpoints sit ~5e-10 from a root: slopes above
#: ``magnitude · 8.8e-7`` are tie-free; this keeps an order of magnitude more.)
_SHALLOW_GUARD = 1e-5

#: Graze guard for non-crossing pairs: a single-signed squared difference
#: whose extremum depth is below this fraction of the squared magnitude can
#: still tie bitwise around the closest approach (ties need ~4.4e-16).
_GRAZE_GUARD = 1e-12

#: Reach of a fired guard, in minutes; the tie region around a shallow,
#: tangent or grazing contact is far narrower.
_NEAR = 1e-3

#: A window that re-ranks into a value tie this often is degenerate as a whole.
_MAX_TIED_RERANKS = 64

#: Slots of the window the contender cut bounds values on.
_SLOTS = 16

_TALLY = threading.local()


class DegenerateArrangement(Exception):
    """The front can serve no part of the window; use the scalar algorithm."""


def front_tally() -> Tuple[float, ...]:
    """``(events, clean slabs, dirty slabs, dirty minutes, minutes, rows
    walked, rows packed, slab rows built, slab rows)`` of the calling
    thread's kernel calls so far, a refused window counting as one dirty
    slab; monotone, like ``difference.scalar_fallback_count``."""
    return getattr(_TALLY, "totals", (0, 0, 0, 0.0, 0.0, 0, 0, 0, 0))


def front_report(since: Tuple[float, ...]) -> Dict[str, float]:
    """What the kernel did since an earlier :func:`front_tally` read."""
    events, clean, dirty, dirty_time, time, walked, packed, built, slab_rows = (
        now - then for now, then in zip(front_tally(), since)
    )
    return {
        "events": events,
        "clean_slabs": clean,
        "dirty_slabs": dirty,
        "dirty_time_share": dirty_time / time if time else 0.0,
        "walked_share": walked / packed if packed else 0.0,
        "slab_rows_share": built / slab_rows if slab_rows else 0.0,
    }


def _count(*amounts: float) -> None:
    _TALLY.totals = tuple(old + new for old, new in zip(front_tally(), amounts))


def _recursion() -> Tuple[int, int]:
    """``(rows built, rows handed)`` of the calling thread's ``LE_Alg`` calls."""
    return getattr(_TALLY, "recursion", (0, 0))


def count_recursion(built: int, rows: int) -> None:
    """``LE_Alg`` built ``built`` of the ``rows`` it was handed; the front
    reads the count around each slab it hands over."""
    _TALLY.recursion = (_recursion()[0] + built, _recursion()[1] + rows)


class FunctionPack(abc.Sequence):
    """Distance functions packed into flat per-piece coefficient arrays.

    The structure-of-arrays transpose of a ``Sequence[DistanceFunction]``:
    piece intervals and hyperbola coefficients live in contiguous columns
    indexed CSR-style by ``offsets``; ``owner`` maps a piece to its function,
    ``ids`` a row to its object id.  The kernels read the columns; a row's
    function is made when first asked for, once for the pack and its takes.
    """

    __slots__ = (
        "ids", "offsets", "owner", "followers", "starts", "ends", "a", "b", "c",
        "_table", "_keys", "_built",
    )

    def __init__(self, functions: Sequence[DistanceFunction]):
        functions = tuple(functions)
        table = np.array(
            [
                (piece.t_start, piece.t_end, piece.curve.a, piece.curve.b, piece.curve.c)
                for function in functions
                for piece in function.pieces
            ],
            dtype=float,
        ).reshape(-1, 5)
        counts = [len(function.pieces) for function in functions]
        self._adopt(
            [function.object_id for function in functions],
            np.cumsum([0] + counts),
            np.ascontiguousarray(table.T),
            enumerate(functions),
        )

    @classmethod
    def from_columns(cls, ids, offsets, starts, ends, a, b, c, built) -> "FunctionPack":
        """A pack over columns in hand; ``built`` maps rows to existing functions."""
        pack = cls.__new__(cls)
        pack._adopt(ids, offsets, np.stack((starts, ends, a, b, c)), built)
        return pack

    @classmethod
    def of(cls, functions: Sequence[DistanceFunction]) -> "FunctionPack":
        """``functions`` itself when it is a pack, else its pack."""
        return functions if isinstance(functions, cls) else cls(functions)

    def _adopt(self, ids, offsets, table, built) -> None:
        self.ids: List[object] = list(ids)
        self.offsets = offsets
        # One (5, pieces) table, so that a row's pieces are one slice of it.
        self._table = table
        self.starts, self.ends, self.a, self.b, self.c = table
        counts = np.diff(offsets)
        self.owner = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        #: Pieces that follow another piece of their function.
        self.followers = np.delete(np.arange(offsets[-1]), offsets[:-1])
        # Made functions, keyed by row of the pack every take started from.
        self._keys, self._built = range(len(self.ids)), dict(built)

    def take(self, rows: Sequence[int]) -> "FunctionPack":
        """The pack of ``rows``, in that order, sharing this pack's functions."""
        rows = np.asarray(rows, dtype=np.int64)
        counts = np.diff(self.offsets)[rows]
        offsets = np.concatenate(([0], np.cumsum(counts)))
        pieces = np.arange(offsets[-1]) + np.repeat(self.offsets[rows] - offsets[:-1], counts)
        rows = rows.tolist()
        pack = FunctionPack.__new__(FunctionPack)
        pack._adopt([self.ids[row] for row in rows], offsets, self._table[:, pieces], {})
        pack._keys, pack._built = [self._keys[row] for row in rows], self._built
        return pack

    def function(self, row: int) -> DistanceFunction:
        """Row ``row``'s function, made from the columns once: of racing
        readers' copies, the one stored first (``setdefault``) is the one."""
        function = self._built.get(self._keys[row])
        if function is None:
            pieces = self._table[:, self.offsets[row] : self.offsets[row + 1]].T.tolist()
            function = DistanceFunction(
                self.ids[row],
                [HyperbolaPiece(s, e, Hyperbola(a, b, c)) for s, e, a, b, c in pieces],
            )
            function = self._built.setdefault(self._keys[row], function)
        return function

    @property
    def functions(self) -> Tuple[DistanceFunction, ...]:
        """Every row's function, for the scalar algorithms that need them all."""
        return tuple(self)

    @property
    def materialized(self) -> int:
        """How many functions this pack and its takes have made or been given."""
        return len(self._built)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, row: int) -> DistanceFunction:
        return self.function(range(len(self))[row])

    def piece_index_at(self, t: float, side: str = "left") -> np.ndarray:
        """Flat index of every function's piece at ``t``, in one ragged lookup.

        ``side="left"`` is ``DistanceFunction.piece_at``: the first piece
        whose end time is ``>= t``, clamped to the last.  ``"right"`` takes
        the piece that *starts* at a breakpoint — the curve just after ``t``.
        """
        before = self.ends < t if side == "left" else self.ends <= t
        local = np.add.reduceat(before, self.offsets[:-1], dtype=np.int64)
        return np.minimum(self.offsets[:-1] + local, self.offsets[1:] - 1)

    def values_at(self, t, piece=None) -> np.ndarray:
        """Every function's value at ``t`` (same floats as ``.value(t)``)."""
        if piece is None:
            piece = self.piece_index_at(t)
        squared = quadratic.value(self.a[piece], self.b[piece], self.c[piece], t)
        return np.sqrt(quadratic.clamped(squared))

    def differ(self, one: np.ndarray, two: np.ndarray) -> np.ndarray:
        """Whether pieces ``one`` and ``two`` are different curves."""
        a, b, c = self.a, self.b, self.c
        return (a[one] != a[two]) | (b[one] != b[two]) | (c[one] != c[two])

    def crowded_at(self, times: np.ndarray, crossed: np.ndarray) -> np.ndarray:
        """Which of the ascending ``times`` have two functions close enough
        in value to cross within the guard band of it.

        Any two functions can own a sub-envelope of the scalar recursion, so
        all are compared.  ``crossed[i]`` is one side of the crossing that
        ``times[i]`` itself is (-1: none); the other side stands in for it.
        Identical curves never cross.
        """
        # A distance changes by at most sqrt(a) a minute.
        reach = 2.0 * float(np.sqrt(np.abs(self.a).max())) * _GUARD
        # Row i: every function's piece at times[i] as ``piece_index_at`` finds
        # it.  Piece p serves the times in (ends[p - 1], ends[p]].
        upto = np.searchsorted(times, self.ends, side="right")
        upto[self.offsets[1:] - 1] = len(times)
        serves = np.diff(upto, prepend=0)
        serves[self.offsets[:-1]] = upto[self.offsets[:-1]]
        piece = np.repeat(np.arange(len(upto)), serves).reshape(len(self), -1).T
        values = self.values_at(times[:, None], piece)
        rows = np.nonzero(crossed >= 0)[0]
        values[rows, crossed[rows]] = np.nan  # sorts last, close to nothing
        ranked = np.sort(values, axis=1)
        close = ranked[:, 1:] - ranked[:, :-1] <= reach + 1e-12 * ranked[:, 1:]
        rows = np.nonzero(close.any(axis=1))[0]
        if rows.size:
            # Tell identical twins from near misses.
            ranked = np.take_along_axis(piece[rows], np.argsort(values[rows], axis=1), axis=1)
            close[rows] &= self.differ(ranked[:, :-1], ranked[:, 1:])
        return close.any(axis=1)

    def require_contiguous_coverage(self, t_lo: float, t_hi: float) -> None:
        """Refuse functions whose pieces do not tile the window exactly: the
        scalar ``piece_at`` reads a gap with the following piece's curve and
        an overlap by end-time search, changes of curve the front cannot see.
        """
        first, last = self.offsets[:-1], self.offsets[1:] - 1
        if np.any(self.starts[first] > t_lo + TIME_TOLERANCE) or np.any(
            self.ends[last] < t_hi - TIME_TOLERANCE
        ):
            raise DegenerateArrangement("a function does not cover the window")
        if np.any(self.starts[self.followers] != self.ends[self.followers - 1]):
            raise DegenerateArrangement("function pieces have gaps or overlaps")

    def jumping(self) -> np.ndarray:
        """Per piece, whether its function is discontinuous where it starts.

        The front follows non-owners through their breakpoints by continuity;
        where a curve jumps instead it has to look at the values again.
        """
        at = self.starts[self.followers]
        after, before = (
            (self.a[piece], self.b[piece], self.c[piece])
            for piece in (self.followers, self.followers - 1)
        )
        gap = quadratic.value(*after, at) - quadratic.value(*before, at)
        scale = quadratic.magnitude(*after, at) + quadratic.magnitude(*before, at)
        jumps = np.zeros(len(self.starts), dtype=bool)
        jumps[self.followers] = np.abs(gap) > RELATIVE_JUMP * scale
        return jumps

    def jump_times(self, t_lo: float, t_hi: float) -> List[float]:
        """Interior breakpoints at which some function is discontinuous."""
        at = self.starts
        return np.unique(at[self.jumping() & (at > t_lo) & (at < t_hi)]).tolist()


def slot_bounds(
    pack: FunctionPack, t_lo: float, t_hi: float, slots: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Every row's smallest and largest distance on each of ``slots`` equal
    slots of the window, ``(rows, slots)`` each, in closed form from the
    pieces that serve it; slots and pieces are widened by ``_NEAR``.

    A piece serves from its predecessor's end to its own, the first and last
    beyond, as ``DistanceFunction.piece_at`` reads them.
    """
    lo, hi = np.concatenate(([0.0], pack.ends[:-1])) - _NEAR, pack.ends + _NEAR
    lo[pack.offsets[:-1]], hi[pack.offsets[1:] - 1] = -np.inf, np.inf
    serving = (hi >= t_lo - _NEAR) & (lo <= t_hi + _NEAR)
    if serving.all():
        piece, first = slice(None), pack.offsets[:-1]
    else:
        piece = np.nonzero(serving)[0]
        first = np.searchsorted(pack.owner[piece], np.arange(len(pack)))
    edges = np.linspace(t_lo, t_hi, slots + 1)
    low, high = quadratic.extrema(
        pack.a[piece, None], pack.b[piece, None], pack.c[piece, None],
        np.maximum(lo[piece, None], edges[:-1] - _NEAR),
        np.minimum(hi[piece, None], edges[1:] + _NEAR),
    )
    return (
        np.sqrt(quadratic.floored(np.minimum.reduceat(low, first))),
        np.sqrt(quadratic.floored(np.maximum.reduceat(high, first))),
    )


def _contenders(
    pack: FunctionPack, t_lo: float, t_hi: float, depth: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The rows that can reach level ``depth`` in the window, ascending, and
    per slot the ceiling the walk's owners must stay under.

    A row's smallest and largest distance on each of ``_SLOTS`` slots come
    from :func:`slot_bounds`.  The ``depth`` rows with the smallest maxima
    keep level ``depth`` under the ``depth``-th, ``bound_j``, throughout slot
    ``j``.  A row whose minimum is above ``bound_j + reach`` in every slot
    is cut (a distance moves at most
    ``sqrt(a)`` a minute; ``reach = 4 sqrt(max a) _NEAR``): it never ranks
    ``depth`` or better at a re-rank, which reads ``limit + 1 = depth``
    values, and stays ``3 sqrt(max a) _NEAR`` above every true owner within
    ``_NEAR`` of any step, so it never owns a level, is never an event's
    other, nor the partner of a root or guard an owner reads (where two
    curves meet or all but meet).  Owners the walk believes in can lag the
    true ones in a dirty span; they are checked against the ceiling, the
    cut rows' lowest value less ``reach / 2``.
    """
    depth = min(depth, len(pack))
    reach = 4.0 * float(np.sqrt(np.abs(pack.a).max())) * _NEAR
    rows, floor = np.arange(len(pack)), np.full(_SLOTS, np.inf)
    # The whole window as one slot first: at a 16th of the cost it cuts most
    # rows, and none the slots would keep (its bound is above theirs).
    for slots in (1, _SLOTS):
        sub = pack.take(rows) if len(rows) < len(pack) else pack
        low, high = slot_bounds(sub, t_lo, t_hi, slots)
        bound = np.partition(high, depth - 1, axis=0)[depth - 1]
        kept = (low <= bound + reach).any(axis=1)
        floor = np.minimum(floor, np.where(kept[:, None], np.inf, low).min(axis=0))
        rows = rows[kept]
    return rows, floor - reach / 2.0


def _crossings(pack: FunctionPack, p, q: np.ndarray, lo: np.ndarray, hi: np.ndarray, reach):
    """Solve ``(a_p - a_q) t² + (b_p - b_q) t + (c_p - c_q) = 0`` for each
    pair of an owner piece ``p`` and a partner piece ``q`` (broadcast), keep
    the roots inside the overlap ``[lo, hi]`` as ``quadratic.crossing_times``
    does (symmetric in the two curves), and fire the guards.

    Guards look only at roots and vertices within ``_NEAR`` of the overlap
    and measure rounding by the owner piece's magnitude; ``reach`` is the
    largest ``|t|`` of the owner's part of the window.

    Returns:
        ``(roots, keep, fired, vertex, graze, flat)``: both roots of each
        pair, smaller first (NaN where none), and the roots kept; the roots
        a guard fired at; each pair's extremum of the squared difference and
        whether the pair touches there without crossing; whether the pair is
        near-identical over its whole overlap.
    """
    a, b, c = pack.a[p], pack.b[p], pack.c[p]
    da, db, dc = a - pack.a[q], b - pack.b[q], c - pack.c[q]

    def magnitude(at):
        return quadratic.magnitude(a, b, c, at) + 1e-300

    # No time a guard looks at has a larger magnitude than this, so most
    # pairs are cleared by one comparison.
    ceiling = magnitude(reach + _NEAR)
    roots, disc, linear, sloped = quadratic.roots(da, db, dc)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        keep = (lo + TIME_TOLERANCE < roots) & (roots < hi - TIME_TOLERANCE)
        # Guards: a root hugging an end of its overlap, a (near-)double
        # root, a shallow crossing, and a contact without a crossing.
        near = (roots >= lo - _NEAR) & (roots <= hi + _NEAR)
        fired = ((roots >= lo) & (roots <= lo + _TANGENT_GUARD)) | (
            (roots >= hi - _TANGENT_GUARD) & (roots <= hi)
        )
        fired[0] |= near[0] & (roots[1] - roots[0] <= _TANGENT_GUARD)
        slope = np.abs(2.0 * da * roots + db)
        shallow = near & (slope <= ceiling * _SHALLOW_GUARD)
        if shallow.any():
            fired |= shallow & (slope <= magnitude(roots) * _SHALLOW_GUARD)
        vertex = quadratic.vertex(da, db)
        depth = np.abs(disc) / (4.0 * np.abs(da))
        graze = ~linear & (disc < 0.0) & (depth <= ceiling * _GRAZE_GUARD)
        if graze.any():
            graze &= (vertex >= lo - _NEAR) & (vertex <= hi + _NEAR)
            graze &= depth <= magnitude(vertex) * _GRAZE_GUARD
    # Near-identical curves may tie at any midpoint of their overlap.
    flat = linear & ~sloped
    if flat.any():
        flat &= ~((da == 0.0) & (db == 0.0) & (dc == 0.0))
        span = np.maximum(np.abs(lo), np.abs(hi))
        residual = np.abs(da) * span * span + np.abs(db) * span + np.abs(dc)
        flat &= residual <= magnitude((lo + hi) / 2.0) * 1e-10
    return roots, keep, fired, vertex, graze, flat


def _solve_all(
    pack: FunctionPack, pieces: np.ndarray, t_lo: float, t_hi: float
) -> Dict[int, Tuple[List[float], List[int], List[Tuple[float, float]]]]:
    """Per piece of ``pieces``: its crossing roots with every other function,
    ascending, the partner piece of each, and the spans a guard fired in.

    One :func:`_crossings` pass over every pair of a piece ``p`` and a piece
    ``q`` of another function overlapping it inside the window.
    """
    p_lo = np.maximum(t_lo, pack.starts[pieces])
    p_hi = np.minimum(t_hi, pack.ends[pieces])
    index, q = np.nonzero(
        (pack.owner != pack.owner[pieces, None])
        & (pack.starts < p_hi[:, None])
        & (pack.ends > p_lo[:, None])
    )
    lo, hi = np.maximum(p_lo[index], pack.starts[q]), np.minimum(p_hi[index], pack.ends[q])
    roots, keep, fired, vertex, graze, flat = _crossings(
        pack, pieces[index], q, lo, hi, np.maximum(np.abs(p_lo[index]), np.abs(p_hi[index]))
    )
    # Roots by piece, then by time, stably where times tie: equal roots from
    # two partners fire the guard on crossings near an event, so their order
    # never shows, but it stays one order whatever else is solved.
    pair = np.broadcast_to(index, roots.shape)
    which, times, partner = pair[keep], roots[keep], np.broadcast_to(q, roots.shape)[keep]
    order = np.argsort(times)
    if np.any(times[order[1:]] == times[order[:-1]]):
        order = np.argsort(times, kind="stable")
    order = order[np.argsort(which[order].astype(np.min_scalar_type(len(pieces))), kind="stable")]
    cuts = np.searchsorted(which[order], np.arange(len(pieces) + 1)).tolist()
    times, partner, pieces = times[order].tolist(), partner[order].tolist(), pieces.tolist()
    solved = {p: (times[s:e], partner[s:e], []) for p, s, e in zip(pieces, cuts, cuts[1:])}
    points = np.concatenate([roots[fired], vertex[graze]])
    for at, lo, hi in zip(
        np.concatenate([pair[fired], index[graze], index[flat]]).tolist(),
        np.concatenate([points - _NEAR, lo[flat]]).tolist(),
        np.concatenate([points + _NEAR, hi[flat]]).tolist(),
    ):
        solved[pieces[at]][2].append((lo, hi))
    return solved


def front_envelopes(
    functions: Sequence[DistanceFunction],
    t_lo: float,
    t_hi: float,
    limit: int,
    scalar: Callable[[float, float], Sequence[Envelope]],
) -> List[Envelope]:
    """Level envelopes 1..``limit`` of ``functions`` over ``[t_lo, t_hi]``.

    Ties between identical curves go to the earlier function, so the caller
    fixes the tie-break by the order it passes (``lower_envelope``: input
    order; ``k_level_envelopes``: canonical order).  ``scalar(s, e)`` is the
    algorithm being reproduced, run on one dirty slab ``[s, e]``; it returns
    at least ``limit`` envelopes.  Of a pack, only clean owners are made.

    Raises:
        DegenerateArrangement: when no part of the window is clean; the
            caller runs the scalar algorithm on the whole of it.
    """
    try:
        if t_hi - t_lo <= _GUARD:
            raise DegenerateArrangement("window too short for the front")
        pack = FunctionPack.of(functions)
        pack.require_contiguous_coverage(t_lo, t_hi)
        bounds, tops, marks = _advance(pack, t_lo, t_hi, limit)
        return _stitch(pack, bounds, tops, marks, limit, scalar)
    except DegenerateArrangement:
        _count(0, 0, 1, max(t_hi - t_lo, 0.0), max(t_hi - t_lo, 0.0), 0, 0, 0, 0)
        raise


def _advance(
    pack: FunctionPack, t_lo: float, t_hi: float, limit: int
) -> Tuple[List[float], List[Tuple[int, ...]], List[Tuple[float, float]]]:
    """The front's log: ``tops[i]`` owns ``bounds[i:i + 2]``; ``marks`` are
    the spans in which a guard fired.

    The walk runs over the window's contenders.  Should an owner it believes
    in reach the cut rows' ceiling (only one lagging the true owner in a
    dirty span can), it runs again over the contenders of a level twice as
    deep, down to every row.  Jumps of any row split steps, and any two rows
    can crowd a boundary.
    """
    jumps = pack.jump_times(t_lo, t_hi)
    depth, walk = limit + 1, None
    while walk is None:
        rows, ceiling = _contenders(pack, t_lo, t_hi, depth)
        cut = len(rows) < len(pack)
        try:
            walk = _walk(pack.take(rows) if cut else pack, t_lo, t_hi, limit, jumps, ceiling)
        except DegenerateArrangement:
            if not cut:
                raise  # else the walk left the full one's path: cut less
        depth *= 2
    bounds, tops, marks, crossed = walk
    _count(0, 0, 0, 0.0, 0.0, len(rows), len(pack), 0, 0)
    tops = list(map(tuple, rows[np.array(tops)].tolist()))
    # Only a boundary the front would emit can be displaced.
    emitted = [i for i in range(len(tops) - 1) if tops[i] != tops[i + 1]]
    if emitted:
        at = np.array(bounds)[1:][emitted]
        crossed = np.array(crossed)[emitted]
        crowded = pack.crowded_at(at, np.where(crossed >= 0, rows[crossed], -1))
        marks.extend((time - _NEAR, time + _NEAR) for time in at[crowded].tolist())
    return bounds, tops, marks


def _walk(
    pack: FunctionPack, t_lo: float, t_hi: float, limit: int, jumps: List[float],
    ceiling: np.ndarray,
) -> Optional[Tuple[List[float], List[Tuple[int, ...]], List[Tuple[float, float]], List[int]]]:
    """:func:`_advance`'s log over ``pack``'s rows, and per step one side of
    the crossing that ends it (-1: none); ``None`` if an owner reached the
    slot's ``ceiling`` within ``_NEAR`` of its step."""
    solved = _solve_all(pack, np.nonzero((pack.starts < t_hi) & (pack.ends > t_lo))[0], t_lo, t_hi)
    ends, owner = pack.ends.tolist(), pack.owner.tolist()
    slope = np.sqrt(np.abs(pack.a))
    marks: List[Tuple[float, float]] = []
    owners: List[int] = []
    pieces: List[int] = []
    tied_reranks = 0

    def rerank(t: float) -> None:
        """Owners from the values just after ``t``; a value tie is dirty."""
        nonlocal tied_reranks
        piece = pack.piece_index_at(t, "right")
        values = pack.values_at(t, piece)
        top = np.argsort(values, kind="stable")[: limit + 1]
        one, two = piece[top[:-1]], piece[top[1:]]
        close = values[top[1:]] - values[top[:-1]] <= (
            (slope[one] + slope[two]) * _GUARD + 1e-12 * values[top[1:]]
        )
        if np.any(close & pack.differ(one, two)):
            marks.append((t - _NEAR, t + _NEAR))
            tied_reranks += 1
            if tied_reranks > _MAX_TIED_RERANKS:
                raise DegenerateArrangement("value ties throughout the window")
        owners[:] = top[:limit].tolist()
        pieces[:] = piece[top[:limit]].tolist()

    seen, resync = 0, t_lo

    def dirty_until() -> float:
        """The far side of every span marked so far: where to look again."""
        nonlocal seen, resync
        if len(marks) > seen:
            resync = max(resync, max(hi for _, hi in marks[seen:]))
            seen = len(marks)
        return resync

    rerank(t_lo)
    t = t_lo
    bounds: List[float] = [t_lo]
    tops: List[Tuple[int, ...]] = []
    held: List[Tuple[int, ...]] = []  # the owners' pieces, per step
    crossed: List[int] = []
    while t < t_hi:
        # The earliest crossing of an owner with anything, or the end of an
        # owner's piece, a discontinuity, or the far side of a dirty span.
        t_next, rank, at = min(t_hi, min(ends[piece] for piece in pieces)), -1, -1
        position = bisect_right(jumps, t)
        if position < len(jumps):
            t_next = min(t_next, jumps[position])
        if dirty_until() > t:
            t_next = min(t_next, resync)
        for index, piece in enumerate(pieces):
            times = solved[piece][0]
            position = bisect_right(times, t)
            if position < len(times) and times[position] < t_next:
                t_next, rank, at = times[position], index, position
        if t_next - t <= _GUARD:
            marks.append((t_next - _NEAR, t_next + _NEAR))
        partner = solved[pieces[rank]][1][at] if rank >= 0 else -1
        other = owner[partner] if rank >= 0 else -1
        crossings = 0  # of owners inside the event's guard band
        for piece in pieces:
            times, _, spans = solved[piece]
            # Guard spans of an owner that this step runs into, each once.
            hit = [span for span in spans if span[0] < t_next and span[1] > t]
            if hit:
                marks.extend(hit)
                spans[:] = [span for span in spans if span not in hit]
            crossings += bisect_left(times, t_next + _GUARD) - bisect_left(times, t_next - _GUARD)
        if crossings > (rank >= 0) + (other in owners):
            # Another critical time of the front there than the event's own,
            # which each of its two sides sees if it is an owner.
            marks.append((t_next - _NEAR, t_next + _NEAR))
        if t < dirty_until() < t_next:
            # A span met on the way ends first: stop there and look again.
            t_next, rank, other = resync, -1, -1
        bounds.append(t_next)
        tops.append(tuple(owners))
        held.append(tuple(pieces))
        crossed.append(other)
        t = t_next
        if t >= t_hi:
            break
        if rank < 0:
            rerank(t)
        elif other in owners:
            # Two owners exchange adjacent levels.
            swap = owners.index(other)
            if abs(swap - rank) != 1:
                marks.append((t - _NEAR, t + _NEAR))
            owners[rank], owners[swap] = owners[swap], owners[rank]
            pieces[rank], pieces[swap] = pieces[swap], pieces[rank]
        else:
            # A function from below the front takes the last level.
            if rank != limit - 1:
                marks.append((t - _NEAR, t + _NEAR))
            owners[rank], pieces[rank] = other, partner
    # Every owner's highest value on each slot its step, widened, meets.
    edges, piece = np.linspace(t_lo, t_hi, _SLOTS + 1), np.array(held)[:, :, None]
    _, high = quadratic.extrema(
        pack.a[piece], pack.b[piece], pack.c[piece],
        np.maximum(np.array(bounds[:-1])[:, None, None], edges[:-1]) - _NEAR,
        np.minimum(np.array(bounds[1:])[:, None, None], edges[1:]) + _NEAR,
    )
    return None if np.any(high > np.square(ceiling)) else (bounds, tops, marks, crossed)


def _stitch(
    pack: FunctionPack,
    bounds: List[float],
    tops: List[Tuple[int, ...]],
    marks: List[Tuple[float, float]],
    limit: int,
    scalar: Callable[[float, float], Sequence[Envelope]],
) -> List[Envelope]:
    """Envelopes from the front's log.

    Elementary intervals a marked span overlaps are dirty; each maximal run
    of them is one slab for ``scalar``, and ``Envelope`` coalesces its pieces
    with the clean ones on either side.
    """
    dirty = [False] * len(tops)
    for span_lo, span_hi in marks:
        first = max(bisect_right(bounds, span_lo) - 1, 0)
        last = min(bisect_left(bounds, span_hi), len(tops))
        dirty[first:last] = [True] * (last - first)
    if all(dirty):
        raise DegenerateArrangement("no clean part of the window")
    level_pieces: List[List[EnvelopePiece]] = [[] for _ in range(limit)]
    served = [0, 0]  # clean and dirty slabs
    dirty_time = 0.0
    recursion = _recursion()
    start = 0
    while start < len(tops):
        stop = start
        while stop < len(tops) and dirty[stop] == dirty[start]:
            stop += 1
        served[dirty[start]] += 1
        if dirty[start]:
            levels = scalar(bounds[start], bounds[stop])
            if len(levels) < limit:
                raise DegenerateArrangement("the scalar slab is missing a level")
            for collected, envelope in zip(level_pieces, levels):
                collected.extend(envelope.pieces)
            dirty_time += bounds[stop] - bounds[start]
        else:
            for level, collected in enumerate(level_pieces):
                opened = start
                for index in range(start + 1, stop + 1):
                    if index == stop or tops[index][level] != tops[opened][level]:
                        owner = pack.function(tops[opened][level])
                        collected.append(EnvelopePiece(owner, bounds[opened], bounds[index]))
                        opened = index
        start = stop
    built, rows = (now - then for now, then in zip(_recursion(), recursion))
    _count(len(tops), served[0], served[1], dirty_time, bounds[-1] - bounds[0], 0, 0, built, rows)
    return [Envelope(collected) for collected in level_pieces]


def k_level_envelopes_bulk(
    functions: Sequence[DistanceFunction],
    t_lo: float,
    t_hi: float,
    max_levels: int,
) -> List[Envelope]:
    """Level envelopes 1..``max_levels`` via the kinetic front.

    ``functions`` must already be in canonical order, as
    :func:`repro.geometry.envelope.klevel.k_level_envelopes` passes them.
    Dirty slabs run :func:`~repro.geometry.envelope.klevel.exclusion_cascade`.

    Raises:
        DegenerateArrangement: when no slab can be served; the caller runs
            the cascade on the whole window.
    """
    # Not at module level: klevel, the cascade's home, imports this module.
    from .klevel import exclusion_cascade

    if not functions:
        raise ValueError("cannot build level envelopes of an empty collection")
    pack = FunctionPack.of(functions)
    limit = min(max_levels, len(pack))
    return front_envelopes(
        pack,
        t_lo,
        t_hi,
        limit,
        lambda s, e: exclusion_cascade(pack, s, e, limit).levels,
    )
