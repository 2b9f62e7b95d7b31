"""Array-oriented envelope kernels (vectorized hot paths, scalar-pinned).

The scalar envelope machinery (``divide_conquer``/``merge``/``env2`` and the
exclusion cascade in ``klevel``) is the semantic ground truth of the
reproduction — every algorithm in this module is an *accelerated re-derivation*
of those oracles, never a reinterpretation.  The contract, enforced by the
differential suite in ``tests/property/test_envelope_differential.py``, is:

* a vectorized kernel either returns **bit-identical** output to its scalar
  oracle, or raises :class:`DegenerateArrangement` so the caller falls back
  to the oracle;
* the *decision inputs* (crossing roots, breakpoints, midpoint comparisons)
  are computed with the exact same floating-point expressions as the scalar
  code, so equal decisions produce equal floats.

The k-level kernel replaces the per-interval exclusion cascade with a single
*kinetic sweep*: all pairwise crossing roots are solved in one closed-form
NumPy pass, sorted, and a ranking permutation is maintained by swapping
adjacent ranks at each crossing (two distance functions can only exchange
ranks where they are equal, hence adjacent).  Piece boundaries of the level
envelopes are exactly those roots — the same doubles the scalar cascade
derives through its recursive merges — so the output coincides bitwise
whenever the arrangement is non-degenerate.  Degeneracies (tangencies,
near-coincident critical times, crossings hugging an interval boundary,
value ties that are not exact curve identities) are detected conservatively
and punted to the scalar cascade.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ...core.tolerances import COEFF_EPSILON, TIME_TOLERANCE
from .hyperbola import DistanceFunction
from .pieces import Envelope, EnvelopePiece

#: Degeneracy guard radius, in multiples of the time tolerance.  Two critical
#: times closer than this (or a crossing root this close to an interval
#: boundary) make the scalar algorithms' tolerance-deduplication observable,
#: so the sweep refuses and the scalar oracle decides.
_GUARD = 4.0 * TIME_TOLERANCE

#: Tangency guard: a pair of roots of one quadratic closer than this is a
#: (near-)double root — the curves touch rather than cross.
_TANGENT_GUARD = 8.0 * TIME_TOLERANCE

#: Shallow-crossing guard.  The scalar merges compare *square-rooted* values
#: at interval midpoints; near a crossing where the squared-difference slope
#: ``|2·Δa·t + Δb|`` is below this fraction of the curves' squared magnitude,
#: the two distances round to the same double at nearby midpoints and the
#: scalar's first-argument tie-break takes over — which the event-driven
#: sweep cannot see.  Rounding makes distances tie when the squared gap is
#: within ~4.4e-16 of the magnitude; midpoints sit at least ~5e-10 from a
#: root, so slopes above ``magnitude · 8.8e-7`` are provably tie-free.  The
#: threshold keeps an order-of-magnitude margin on top.
_SHALLOW_GUARD = 1e-5

#: Graze guard for non-crossing pairs: when the squared-difference quadratic
#: stays single-signed but its extremum depth is below this fraction of the
#: curves' squared magnitude, the square roots can still tie bitwise around
#: the closest approach.  Ties need relative depth ~4.4e-16; the threshold
#: leaves three orders of magnitude of margin.
_GRAZE_GUARD = 1e-12


class DegenerateArrangement(Exception):
    """The input is too degenerate for a vectorized kernel; use the oracle."""


class FunctionPack:
    """Distance functions packed into flat per-piece coefficient arrays.

    The pack is the array-of-structures → structure-of-arrays transpose of a
    ``Sequence[DistanceFunction]``: piece intervals and hyperbola
    coefficients live in contiguous NumPy columns indexed by ``offsets``
    (CSR-style), so whole-collection kernels touch no Python objects.
    """

    __slots__ = ("functions", "offsets", "starts", "ends", "a", "b", "c")

    def __init__(self, functions: Sequence[DistanceFunction]):
        self.functions: Tuple[DistanceFunction, ...] = tuple(functions)
        counts = [len(f.pieces) for f in self.functions]
        self.offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        total = int(self.offsets[-1])
        self.starts = np.empty(total)
        self.ends = np.empty(total)
        self.a = np.empty(total)
        self.b = np.empty(total)
        self.c = np.empty(total)
        position = 0
        for function in self.functions:
            for piece in function.pieces:
                self.starts[position] = piece.t_start
                self.ends[position] = piece.t_end
                curve = piece.curve
                self.a[position] = curve.a
                self.b[position] = curve.b
                self.c[position] = curve.c
                position += 1

    def __len__(self) -> int:
        return len(self.functions)

    def piece_index_at(self, function_index: int, t: float) -> int:
        """Index (into the flat arrays) of ``functions[i].piece_at(t)``.

        Replicates ``DistanceFunction.piece_at``: the first piece whose end
        time is ``>= t``, clamped to the last piece.
        """
        lo = int(self.offsets[function_index])
        hi = int(self.offsets[function_index + 1])
        local = int(np.searchsorted(self.ends[lo:hi], t, side="left"))
        return min(lo + local, hi - 1)

    def values_at(self, t: float) -> np.ndarray:
        """Every function's value at ``t`` (same floats as ``.value(t)``)."""
        count = len(self.functions)
        values = np.empty(count)
        for index in range(count):
            piece = self.piece_index_at(index, t)
            quad = (self.a[piece] * t + self.b[piece]) * t + self.c[piece]
            values[index] = np.sqrt(quad) if quad > 0.0 else 0.0
        return values


def pack_functions(functions: Sequence[DistanceFunction]) -> FunctionPack:
    """Pack a function collection for the array kernels."""
    return FunctionPack(functions)


def _require_contiguous_coverage(
    pack: FunctionPack, t_lo: float, t_hi: float
) -> None:
    """Refuse functions whose pieces do not tile the query window exactly.

    The scalar ``piece_at`` silently evaluates gaps with the *following*
    piece's curve and resolves sub-tolerance overlaps by end-time binary
    search; both behaviours make a function's effective curve change at
    times that are not reported breakpoints, which the sweep cannot track.
    """
    offsets = pack.offsets
    for index in range(len(pack)):
        lo, hi = int(offsets[index]), int(offsets[index + 1])
        if pack.starts[lo] > t_lo + TIME_TOLERANCE:
            raise DegenerateArrangement("function does not cover the window start")
        if pack.ends[hi - 1] < t_hi - TIME_TOLERANCE:
            raise DegenerateArrangement("function does not cover the window end")
        if hi - lo > 1 and not np.array_equal(
            pack.starts[lo + 1 : hi], pack.ends[lo : hi - 1]
        ):
            raise DegenerateArrangement("function pieces have gaps or overlaps")


def _pairwise_crossing_events(
    pack: FunctionPack, t_lo: float, t_hi: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All pairwise crossing roots inside the window, as parallel arrays.

    Solves, for every pair of pieces belonging to distinct functions, the
    quadratic ``(a_p - a_q) t² + (b_p - b_q) t + (c_p - c_q) = 0`` with the
    exact floating-point expressions of ``Hyperbola.intersection_times`` and
    the same open-interval tolerance filter.  Raises
    :class:`DegenerateArrangement` on (near-)tangencies and on roots inside
    the guard band of their overlap interval's endpoints, where the scalar
    algorithms' tolerance filters could drop a genuine crossing.

    Returns:
        ``(times, first, second)`` — root times with the two crossing
        functions' indices.
    """
    total = len(pack.starts)
    if total * total > 64_000_000:
        raise DegenerateArrangement("piece-pair matrix too large for the sweep")
    fn_of_piece = (
        np.repeat(
            np.arange(len(pack), dtype=np.int64), np.diff(pack.offsets)
        )
        if total
        else np.zeros(0, dtype=np.int64)
    )
    p_idx, q_idx = np.nonzero(fn_of_piece[:, None] < fn_of_piece[None, :])
    if not p_idx.size:
        return np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)

    lo = np.maximum(t_lo, np.maximum(pack.starts[p_idx], pack.starts[q_idx]))
    hi = np.minimum(t_hi, np.minimum(pack.ends[p_idx], pack.ends[q_idx]))
    overlap = hi > lo
    p_idx, q_idx, lo, hi = p_idx[overlap], q_idx[overlap], lo[overlap], hi[overlap]
    if not p_idx.size:
        return np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)

    da = pack.a[p_idx] - pack.a[q_idx]
    db = pack.b[p_idx] - pack.b[q_idx]
    dc = pack.c[p_idx] - pack.c[q_idx]

    root_lo = np.full(da.shape, np.nan)
    root_hi = np.full(da.shape, np.nan)
    linear = np.abs(da) < COEFF_EPSILON
    sloped = linear & (np.abs(db) >= COEFF_EPSILON)
    with np.errstate(divide="ignore", invalid="ignore"):
        root_lo[sloped] = -dc[sloped] / db[sloped]
        quadratic = ~linear
        disc = db * db - 4.0 * da * dc
        solvable = quadratic & (disc >= 0.0)
        sqrt_disc = np.sqrt(np.where(solvable, disc, 0.0))
        r_minus = (-db - sqrt_disc) / (2.0 * da)
        r_plus = (-db + sqrt_disc) / (2.0 * da)
    r_first = np.minimum(r_minus, r_plus)
    r_second = np.maximum(r_minus, r_plus)
    root_lo[solvable] = r_first[solvable]
    root_hi[solvable] = r_second[solvable]
    with np.errstate(invalid="ignore"):
        if np.any(solvable & (r_second - r_first <= _TANGENT_GUARD)):
            raise DegenerateArrangement("tangent or near-tangent curve pair")

    # Shallow-crossing and graze guards: the sweep's event bookkeeping only
    # agrees with the scalar midpoint comparisons where the square-rooted
    # values provably never tie.  Magnitudes are evaluated on the first
    # piece of each pair; a tie region wider than ~4e-11 cannot arise past
    # the guards, so only roots near the overlap matter.
    near = 1e-3

    def _magnitude(at: np.ndarray) -> np.ndarray:
        squared = np.abs((pack.a[p_idx] * at + pack.b[p_idx]) * at + pack.c[p_idx])
        return np.maximum(squared, 1e-300)

    for roots in (root_lo, root_hi):
        finite = np.isfinite(roots)
        relevant = finite & (roots >= lo - near) & (roots <= hi + near)
        if np.any(relevant):
            at = np.where(relevant, roots, 0.0)
            slope = np.abs(2.0 * da * at + db)
            if np.any(relevant & (slope <= _magnitude(at) * _SHALLOW_GUARD)):
                raise DegenerateArrangement(
                    "shallow crossing (rooted values may tie)"
                )

    grazing = quadratic & (disc < 0.0)
    if np.any(grazing):
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = np.where(grazing, -db / (2.0 * da), 0.0)
            depth = np.where(
                grazing, np.abs(disc) / (4.0 * np.abs(da)), np.inf
            )
        in_reach = grazing & (vertex >= lo - near) & (vertex <= hi + near)
        if np.any(in_reach & (depth <= _magnitude(vertex) * _GRAZE_GUARD)):
            raise DegenerateArrangement("grazing pair (rooted values may tie)")

    flat = linear & ~sloped & ~((da == 0.0) & (db == 0.0) & (dc == 0.0))
    if np.any(flat):
        span = np.maximum(np.abs(lo), np.abs(hi))
        residual = np.abs(da) * span * span + np.abs(db) * span + np.abs(dc)
        if np.any(flat & (residual <= _magnitude((lo + hi) / 2.0) * 1e-10)):
            raise DegenerateArrangement(
                "near-identical pair (rooted values may tie)"
            )

    times: List[np.ndarray] = []
    firsts: List[np.ndarray] = []
    seconds: List[np.ndarray] = []
    for roots in (root_lo, root_hi):
        finite = np.isfinite(roots)
        near_edge = finite & (
            ((roots > lo) & (roots <= lo + _TANGENT_GUARD))
            | ((roots >= hi - _TANGENT_GUARD) & (roots < hi))
        )
        if np.any(near_edge):
            raise DegenerateArrangement("crossing root inside the boundary guard")
        keep = finite & (lo + TIME_TOLERANCE < roots) & (roots < hi - TIME_TOLERANCE)
        times.append(roots[keep])
        firsts.append(fn_of_piece[p_idx[keep]])
        seconds.append(fn_of_piece[q_idx[keep]])
    return (
        np.concatenate(times),
        np.concatenate(firsts),
        np.concatenate(seconds),
    )


def _ranking_at(pack: FunctionPack, t: float) -> List[int]:
    """Stable value ranking of all functions at time ``t``.

    Ties between non-identical curves are refused: the scalar merges break
    them with ``first.value(mid) <= second.value(mid)`` at *different*
    midpoints, which only provably agrees with a stable sort when the tied
    curves are the same hyperbola (coincident functions never separate).
    """
    values = pack.values_at(t)
    order = np.argsort(values, kind="stable")
    tied = np.nonzero(values[order][1:] == values[order][:-1])[0]
    for position in tied.tolist():
        one = pack.piece_index_at(int(order[position]), t)
        two = pack.piece_index_at(int(order[position + 1]), t)
        if (
            pack.a[one] != pack.a[two]
            or pack.b[one] != pack.b[two]
            or pack.c[one] != pack.c[two]
        ):
            raise DegenerateArrangement("exact value tie between distinct curves")
    return order.tolist()


def k_level_envelopes_bulk(
    functions: Sequence[DistanceFunction],
    t_lo: float,
    t_hi: float,
    max_levels: int,
) -> List[Envelope]:
    """Level envelopes 1..``max_levels`` via the kinetic arrangement sweep.

    ``functions`` must already be in canonical order (sorted by
    ``str(object_id)``) — the caller,
    :func:`repro.geometry.envelope.klevel.k_level_envelopes`, guarantees it,
    and the stable tie-breaking of the sweep depends on it exactly like the
    scalar cascade's candidate enumeration does.

    Raises:
        DegenerateArrangement: when any guard trips; the caller must fall
            back to the scalar cascade.
    """
    count = len(functions)
    if count == 0:
        raise ValueError("cannot build level envelopes of an empty collection")
    if t_hi - t_lo <= _GUARD:
        raise DegenerateArrangement("window too short for the sweep")
    limit = min(max_levels, count)

    pack = pack_functions(functions)
    _require_contiguous_coverage(pack, t_lo, t_hi)

    cross_t, cross_i, cross_j = _pairwise_crossing_events(pack, t_lo, t_hi)

    breakpoint_times: List[float] = []
    for function in pack.functions:
        breakpoint_times.extend(function.breakpoints(t_lo, t_hi))
    bp_t = np.unique(np.asarray(breakpoint_times)) if breakpoint_times else np.zeros(0)

    event_t = np.concatenate([cross_t, bp_t])
    # -1 marks a re-ranking (breakpoint) event; crossings carry the pair.
    event_i = np.concatenate([cross_i, np.full(bp_t.size, -1, dtype=np.int64)])
    event_j = np.concatenate([cross_j, np.full(bp_t.size, -1, dtype=np.int64)])
    order = np.argsort(event_t, kind="stable")
    event_t, event_i, event_j = event_t[order], event_i[order], event_j[order]

    guarded = np.concatenate([[t_lo], event_t, [t_hi]])
    if np.any(np.diff(guarded) <= _GUARD):
        raise DegenerateArrangement("critical times closer than the guard band")

    first_stop = float(event_t[0]) if event_t.size else t_hi
    ranking = _ranking_at(pack, (t_lo + first_stop) / 2.0)
    rank_of = [0] * count
    for rank, function_index in enumerate(ranking):
        rank_of[function_index] = rank

    level_pieces: List[List[EnvelopePiece]] = [[] for _ in range(limit)]
    segment_start = [t_lo] * limit
    segment_owner = list(ranking[:limit])

    def _close_and_open(rank: int, t: float, new_owner: int) -> None:
        if rank >= limit or segment_owner[rank] == new_owner:
            return
        level_pieces[rank].append(
            EnvelopePiece(
                pack.functions[segment_owner[rank]], segment_start[rank], t
            )
        )
        segment_start[rank] = t
        segment_owner[rank] = new_owner

    times_list = event_t.tolist()
    first_list = event_i.tolist()
    second_list = event_j.tolist()
    for position, t in enumerate(times_list):
        one = first_list[position]
        if one < 0:
            # Breakpoint: curves may change discontinuously — re-rank at the
            # midpoint of the following inter-event segment, as the scalar
            # merges would compare there.
            next_t = (
                times_list[position + 1]
                if position + 1 < len(times_list)
                else t_hi
            )
            ranking = _ranking_at(pack, (t + next_t) / 2.0)
            for rank in range(count):
                rank_of[ranking[rank]] = rank
            for rank in range(limit):
                _close_and_open(rank, t, ranking[rank])
            continue
        two = second_list[position]
        rank_one, rank_two = rank_of[one], rank_of[two]
        if rank_one > rank_two:
            one, two = two, one
            rank_one, rank_two = rank_two, rank_one
        if rank_two - rank_one != 1:
            # A crossing between non-adjacent ranks means an earlier flip was
            # filtered away — the sweep's invariant is broken.
            raise DegenerateArrangement("non-adjacent crossing in the sweep")
        rank_of[one], rank_of[two] = rank_two, rank_one
        _close_and_open(rank_one, t, two)
        _close_and_open(rank_two, t, one)

    envelopes: List[Envelope] = []
    for rank in range(limit):
        level_pieces[rank].append(
            EnvelopePiece(pack.functions[segment_owner[rank]], segment_start[rank], t_hi)
        )
        envelopes.append(Envelope(level_pieces[rank]))
    return envelopes
