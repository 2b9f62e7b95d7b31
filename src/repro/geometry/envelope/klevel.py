"""k-level envelopes: the flat (per-level) view of the IPAC-NN structure.

The level-1 envelope tells which trajectory is (most probably) the nearest
neighbor at every instant.  The level-k envelope tells which trajectory is
the k-th ranked candidate at every instant: it is the lower envelope of the
remaining functions once, for each elementary interval, the owners of levels
1..k-1 over that interval have been excluded.  The IPAC-NN tree of the paper
stores exactly this information with parent/child links; the flat level view
here is what the Category-2 and Category-4 queries of Section 4 consume.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bulk import DegenerateArrangement, FunctionPack, k_level_envelopes_bulk
from .divide_conquer import le_alg
from .hyperbola import DistanceFunction
from .pieces import Envelope, EnvelopePiece

from ...core.tolerances import TIME_TOLERANCE as _TIME_TOLERANCE


class LevelEnvelopes:
    """The stack of level-1..level-L lower envelopes over a common window.

    Levels are 1-based to match the paper's wording ("Level 1 of the IPAC-NN
    tree is the lower envelope").  A level may be ``None``-like (absent) past
    the number of available functions.
    """

    __slots__ = ("t_start", "t_end", "levels")

    def __init__(self, t_start: float, t_end: float, levels: Sequence[Envelope]):
        self.t_start = t_start
        self.t_end = t_end
        self.levels: Tuple[Envelope, ...] = tuple(levels)

    def __len__(self) -> int:
        return len(self.levels)

    def level(self, k: int) -> Envelope:
        """The level-``k`` envelope (1-based).

        Raises:
            IndexError: when fewer than ``k`` levels exist.
        """
        if k < 1:
            raise IndexError("envelope levels are 1-based")
        if k > len(self.levels):
            raise IndexError(f"only {len(self.levels)} levels available, asked for {k}")
        return self.levels[k - 1]

    def rank_of(self, object_id: object, t: float) -> Optional[int]:
        """Rank (1-based level) of ``object_id`` at time ``t``.

        Returns ``None`` when the object does not own any level at ``t``
        (it was either pruned or ranks below the computed levels).
        """
        for index, envelope in enumerate(self.levels, start=1):
            try:
                if envelope.owner_at(t) == object_id:
                    return index
            except ValueError:
                continue
        return None

    def owners_at(self, t: float) -> List[object]:
        """Owners of levels 1..L at time ``t`` (ranking of the candidates)."""
        owners = []
        for envelope in self.levels:
            try:
                owners.append(envelope.owner_at(t))
            except ValueError:
                break
        return owners


def k_level_envelopes(
    functions: Sequence[DistanceFunction],
    t_lo: float,
    t_hi: float,
    max_levels: Optional[int] = None,
) -> LevelEnvelopes:
    """Compute the first ``max_levels`` level envelopes of a function set.

    The kinetic front of :mod:`repro.geometry.envelope.bulk` serves every
    part of the window it can reproduce :func:`exclusion_cascade` on bit for
    bit and runs the cascade on the dirty slabs between; a window with no
    clean part falls back to the cascade as a whole.

    Args:
        functions: distance functions covering ``[t_lo, t_hi]`` (a pack too).
        t_lo: window start.
        t_hi: window end.
        max_levels: number of levels to materialize; defaults to the number
            of functions (the full arrangement depth).

    Returns:
        A :class:`LevelEnvelopes` stack.
    """
    pack = FunctionPack.of(functions)
    order, limit = _canonical_order(pack.ids, max_levels)
    pack = pack.take(order)
    try:
        levels = k_level_envelopes_bulk(pack, t_lo, t_hi, limit)
        return LevelEnvelopes(t_lo, t_hi, levels)
    except DegenerateArrangement:
        pass
    return exclusion_cascade(pack, t_lo, t_hi, limit)


def _canonical_order(
    ids: Sequence[object], max_levels: Optional[int]
) -> Tuple[List[int], int]:
    """Validate inputs; the canonical order of the rows, and the level limit.

    Ties between equal-valued functions are broken by input order inside
    ``le_alg``, and the per-interval exclusion cascade amplifies the
    choice into different level *memberships*.  Canonicalizing the order
    here makes every level a pure function of the function set, so rank
    answers agree across execution layers that enumerate candidates
    differently (insertion order, sorted corridor survivors).  The
    kinetic front inherits the same canonical order for its stable
    tie-breaking.
    """
    if not ids:
        raise ValueError("cannot build level envelopes of an empty collection")
    limit = len(ids) if max_levels is None else min(max_levels, len(ids))
    if limit < 1:
        raise ValueError("max_levels must be at least 1")
    if len(set(ids)) != len(ids):
        raise ValueError("distance functions must have unique object ids")
    return sorted(range(len(ids)), key=lambda row: str(ids[row])), limit


def exclusion_cascade(
    functions: Sequence[DistanceFunction],
    t_lo: float,
    t_hi: float,
    max_levels: Optional[int] = None,
) -> LevelEnvelopes:
    """The per-interval exclusion cascade: level ``k`` is the lower envelope
    of whatever levels ``1..k-1`` do not own on each elementary interval.

    Same arguments and result as :func:`k_level_envelopes`: what the front
    runs on its dirty slabs, ``==`` to
    :func:`repro.reference.envelope.exclusion_cascade`.  Each interval's
    candidates are a take of the pack, so :func:`le_alg` makes functions
    only of the rows it does not skip.
    """
    pack = FunctionPack.of(functions)
    order, limit = _canonical_order(pack.ids, max_levels)
    pack = pack.take(order)
    row_of = {object_id: row for row, object_id in enumerate(pack.ids)}
    every = np.arange(len(pack))

    levels: List[Envelope] = [le_alg(pack, t_lo, t_hi)]
    exclusions = [
        (piece.t_start, piece.t_end, [row_of[piece.object_id]]) for piece in levels[0].pieces
    ]
    for _ in range(1, limit):
        next_pieces: List[EnvelopePiece] = []
        next_exclusions = []
        for start, end, excluded in exclusions:
            if end - start <= _TIME_TOLERANCE or len(excluded) == len(pack):
                continue
            for piece in le_alg(pack.take(np.delete(every, excluded)), start, end).pieces:
                next_pieces.append(piece)
                next_exclusions.append(
                    (piece.t_start, piece.t_end, excluded + [row_of[piece.object_id]])
                )
        if not next_pieces:
            break
        levels.append(Envelope(next_pieces))
        exclusions = next_exclusions
    return LevelEnvelopes(t_lo, t_hi, levels)
