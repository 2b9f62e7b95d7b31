"""Reference crossing solve of the kinetic front: one owner piece at a time.

:func:`repro.geometry.envelope.bulk._solve_all` solves the crossings and
guard spans of every contender piece in one vectorised pass; this is the
per-piece solve it replaced, kept as the oracle that pass is pinned against
(``tests/property/test_front_contenders.py``): per piece, the same roots,
partners and spans as multisets.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..core.tolerances import COEFF_EPSILON, TIME_TOLERANCE
from ..geometry.envelope.bulk import (
    _GRAZE_GUARD,
    _NEAR,
    _SHALLOW_GUARD,
    _TANGENT_GUARD,
    FunctionPack,
)


class Solved(NamedTuple):
    """One owner piece against every other function, solved once."""

    times: np.ndarray  # crossing roots the scalar filters would keep, ascending
    partner: np.ndarray  # flat index of the other function's piece at each root
    span_lo: np.ndarray  # spans in which a guard fired for this piece
    span_hi: np.ndarray


def solve_piece(pack: FunctionPack, p: int, t_lo: float, t_hi: float) -> Solved:
    """Crossings and guard spans of piece ``p`` with all other functions.

    Solves ``(a_p - a_q) t² + (b_p - b_q) t + (c_p - c_q) = 0`` for every
    piece ``q`` of another function that overlaps ``p`` inside the window,
    with the float expressions and open-interval tolerance filter of
    ``Hyperbola.intersection_times`` (symmetric in the two curves).  Guards
    look only at roots and vertices within ``_NEAR`` of the overlap.
    """
    p_lo, p_hi = max(t_lo, float(pack.starts[p])), min(t_hi, float(pack.ends[p]))
    others = pack.owner != pack.owner[p]
    q = np.nonzero(others & (pack.starts < p_hi) & (pack.ends > p_lo))[0]
    lo, hi = np.maximum(p_lo, pack.starts[q]), np.minimum(p_hi, pack.ends[q])
    da, db, dc = pack.a[p] - pack.a[q], pack.b[p] - pack.b[q], pack.c[p] - pack.c[q]

    def magnitude(at):
        # The scale of the rounding error of the squared value at ``at``: the
        # sum of its terms, which dwarfs the value itself where they cancel.
        at = np.abs(at)
        return (abs(pack.a[p]) * at + abs(pack.b[p])) * at + abs(pack.c[p]) + 1e-300

    # No time a guard looks at has a larger magnitude than this, so most
    # pairs are cleared by one comparison.
    ceiling = float(magnitude(max(abs(p_lo), abs(p_hi)) + _NEAR))
    linear = np.abs(da) < COEFF_EPSILON
    sloped = linear & (np.abs(db) >= COEFF_EPSILON)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        disc = db * db - 4.0 * da * dc
        solvable = ~linear & (disc >= 0.0)
        sqrt_disc = np.sqrt(np.where(solvable, disc, 0.0))
        # Both roots of every pair, smaller first; NaN where there is none.
        r_minus, r_plus = (-db - sqrt_disc) / (2.0 * da), (-db + sqrt_disc) / (2.0 * da)
        roots = np.stack([np.minimum(r_minus, r_plus), np.maximum(r_minus, r_plus)])
        roots[:, ~solvable] = np.nan
        roots[0, sloped] = -dc[sloped] / db[sloped]
        keep = (lo + TIME_TOLERANCE < roots) & (roots < hi - TIME_TOLERANCE)
        # Guards: a root hugging an end of its overlap, a (near-)double
        # root, a shallow crossing, and a contact without a crossing.
        reach = (roots >= lo - _NEAR) & (roots <= hi + _NEAR)
        fired = ((roots >= lo) & (roots <= lo + _TANGENT_GUARD)) | (
            (roots >= hi - _TANGENT_GUARD) & (roots <= hi)
        )
        fired[0] |= reach[0] & (roots[1] - roots[0] <= _TANGENT_GUARD)
        slope = np.abs(2.0 * da * roots + db)
        shallow = reach & (slope <= ceiling * _SHALLOW_GUARD)
        if shallow.any():
            fired |= shallow & (slope <= magnitude(roots) * _SHALLOW_GUARD)
        vertex = -db / (2.0 * da)
        depth = np.abs(disc) / (4.0 * np.abs(da))
        graze = ~linear & (disc < 0.0) & (depth <= ceiling * _GRAZE_GUARD)
        if graze.any():
            graze &= (vertex >= lo - _NEAR) & (vertex <= hi + _NEAR)
            graze &= depth <= magnitude(vertex) * _GRAZE_GUARD
    points = np.concatenate([roots[fired], vertex[graze]])
    # Near-identical curves may tie at any midpoint of their overlap.
    flat = linear & ~sloped
    if flat.any():
        flat &= ~((da == 0.0) & (db == 0.0) & (dc == 0.0))
        span = np.maximum(np.abs(lo), np.abs(hi))
        residual = np.abs(da) * span * span + np.abs(db) * span + np.abs(dc)
        flat &= residual <= magnitude((lo + hi) / 2.0) * 1e-10
    times = roots[keep]
    order = np.argsort(times)
    return Solved(
        times[order],
        np.broadcast_to(q, roots.shape)[keep][order],
        np.concatenate([points - _NEAR, lo[flat]]),
        np.concatenate([points + _NEAR, hi[flat]]),
    )
