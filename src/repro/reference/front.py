"""Reference crossing solve of the kinetic front: one owner piece at a time.

:func:`repro.geometry.envelope.bulk._solve_all` solves the crossings and
guard spans of every contender piece in one vectorised pass; this is the
per-piece grouping it replaced, kept as the oracle that pass's batching is
pinned against (``tests/property/test_front_contenders.py``): per piece, the
same roots, partners and spans as multisets.  Both group the pairs for the
one arithmetic of ``bulk._crossings``; the scalar ``le_alg``, which solves
with ``quadratic.crossing_times``, checks that arithmetic independently.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..geometry.envelope.bulk import _NEAR, FunctionPack, _crossings


class Solved(NamedTuple):
    """One owner piece against every other function, solved once."""

    times: np.ndarray  # crossing roots the scalar filters would keep, ascending
    partner: np.ndarray  # flat index of the other function's piece at each root
    span_lo: np.ndarray  # spans in which a guard fired for this piece
    span_hi: np.ndarray


def solve_piece(pack: FunctionPack, p: int, t_lo: float, t_hi: float) -> Solved:
    """Crossings and guard spans of piece ``p`` with all other functions.

    The pairs are piece ``p`` and every piece ``q`` of another function that
    overlaps it inside the window, solved by ``bulk._crossings`` as one
    group.
    """
    p_lo, p_hi = max(t_lo, float(pack.starts[p])), min(t_hi, float(pack.ends[p]))
    others = pack.owner != pack.owner[p]
    q = np.nonzero(others & (pack.starts < p_hi) & (pack.ends > p_lo))[0]
    lo, hi = np.maximum(p_lo, pack.starts[q]), np.minimum(p_hi, pack.ends[q])
    roots, keep, fired, vertex, graze, flat = _crossings(
        pack, p, q, lo, hi, max(abs(p_lo), abs(p_hi))
    )
    points = np.concatenate([roots[fired], vertex[graze]])
    times = roots[keep]
    order = np.argsort(times)
    return Solved(
        times[order],
        np.broadcast_to(q, roots.shape)[keep][order],
        np.concatenate([points - _NEAR, lo[flat]]),
        np.concatenate([points + _NEAR, hi[flat]]),
    )
