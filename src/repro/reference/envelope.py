"""Reference ``LE_Alg`` (Algorithm 1) and the exclusion cascade over it.

The paper's plain divide-and-conquer recursion: split the functions in two,
build both halves' envelopes, and combine them with ``Merge_LE``.  The
production :func:`repro.geometry.envelope.divide_conquer.le_alg` keeps the
same index tree but skips a half buried under its sibling's envelope; the
kinetic front behind :func:`~repro.geometry.envelope.divide_conquer.lower_envelope`
and :func:`~repro.geometry.envelope.klevel.k_level_envelopes` reproduces
both.  All of them are pinned ``==`` to what is here, and Figures 11 and 13
time this recursion itself.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.tolerances import TIME_TOLERANCE
from ..geometry.envelope.hyperbola import DistanceFunction
from ..geometry.envelope.klevel import LevelEnvelopes, _canonical_order
from ..geometry.envelope.merge import merge_envelopes
from ..geometry.envelope.pieces import Envelope, EnvelopePiece


def le_alg(
    functions: Sequence[DistanceFunction], t_lo: float, t_hi: float
) -> Envelope:
    """Lower envelope of ``functions`` over ``[t_lo, t_hi]`` by the plain
    recursion; ties go to the function that comes first."""
    if not functions:
        raise ValueError("cannot build the lower envelope of an empty collection")
    if t_hi < t_lo:
        raise ValueError(f"empty window [{t_lo}, {t_hi}]")
    return _recurse(list(functions), 0, len(functions), t_lo, t_hi)


def _recurse(
    functions: Sequence[DistanceFunction], start: int, end: int, t_lo: float, t_hi: float
) -> Envelope:
    """Envelope of ``functions[start:end]`` (non-empty) over the window."""
    count = end - start
    if count == 1:
        return Envelope([EnvelopePiece(functions[start], t_lo, t_hi)])
    middle = start + count // 2
    left = _recurse(functions, start, middle, t_lo, t_hi)
    right = _recurse(functions, middle, end, t_lo, t_hi)
    return merge_envelopes(left, right)


def exclusion_cascade(
    functions: Sequence[DistanceFunction],
    t_lo: float,
    t_hi: float,
    max_levels: Optional[int] = None,
) -> LevelEnvelopes:
    """Level ``k`` is the plain :func:`le_alg` of whatever levels ``1..k-1``
    do not own, elementary interval by elementary interval, over the
    functions in canonical order."""
    order, limit = _canonical_order([f.object_id for f in functions], max_levels)
    functions = [functions[row] for row in order]
    by_id: Dict[object, DistanceFunction] = {f.object_id: f for f in functions}

    first = le_alg(functions, t_lo, t_hi)
    levels: List[Envelope] = [first]
    exclusions: List[Tuple[float, float, FrozenSet[object]]] = [
        (piece.t_start, piece.t_end, frozenset([piece.object_id])) for piece in first.pieces
    ]
    for _ in range(1, limit):
        next_pieces: List[EnvelopePiece] = []
        next_exclusions: List[Tuple[float, float, FrozenSet[object]]] = []
        for start, end, excluded in exclusions:
            if end - start <= TIME_TOLERANCE:
                continue
            candidates = [f for object_id, f in by_id.items() if object_id not in excluded]
            if not candidates:
                continue
            for piece in le_alg(candidates, start, end).pieces:
                next_pieces.append(piece)
                next_exclusions.append(
                    (piece.t_start, piece.t_end, excluded | {piece.object_id})
                )
        if not next_pieces:
            break
        levels.append(Envelope(next_pieces))
        exclusions = next_exclusions
    return LevelEnvelopes(t_lo, t_hi, levels)
