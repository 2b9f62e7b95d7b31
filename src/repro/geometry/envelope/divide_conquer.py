"""``LE_Alg`` (Algorithm 1): divide-and-conquer lower envelope construction.

The recursion mirrors MergeSort: split the set of distance functions in two,
construct each half's envelope, and combine them with ``Merge_LE``.  Because
two hyperbolic distance functions cross at most twice, the envelope's
combinatorial complexity is linear in the number of functions
(Davenport–Schinzel λ₂), and the overall running time is O(N log N) — the
asymptotic advantage demonstrated by Figure 11 of the paper.

:func:`le_alg` is that recursion.  :func:`lower_envelope`, the entry the
serving stack imports, builds the same envelope with the kinetic front of
:mod:`repro.geometry.envelope.bulk` and keeps the recursion for what the
front cannot serve.
"""

from __future__ import annotations

from typing import Sequence

from .bulk import DegenerateArrangement, FunctionPack, front_envelopes
from .hyperbola import DistanceFunction
from .merge import merge_envelopes
from .pieces import Envelope, EnvelopePiece

#: Below this many pieces the recursion beats the front's fixed cost.  On the
#: IPAC-NN tree's nested sets (a median of 42 pieces over short intervals)
#: this costs what the old 32-function switch did; every engine context of 23
#: to 31 functions (115 pieces and up) runs faster on the front.
_FRONT_MIN_PIECES = 64


def lower_envelope(
    functions: Sequence[DistanceFunction], t_lo: float, t_hi: float
) -> Envelope:
    """Lower envelope of a collection of distance functions over ``[t_lo, t_hi]``.

    The production entry: the kinetic front of
    :mod:`repro.geometry.envelope.bulk` at one level, bit-identical to
    :func:`le_alg`, which it runs on the slabs it cannot serve.  Ties go to
    the function that comes first in ``functions``.

    Args:
        functions: the distance functions (at least one), a pack or a
            sequence; each must cover the whole window.
        t_lo: window start.
        t_hi: window end.

    Returns:
        The level-1 lower envelope as an :class:`Envelope`.
    """
    if isinstance(functions, FunctionPack):
        pieces = int(functions.offsets[-1])
    else:
        pieces = sum(len(function.pieces) for function in functions)
    if pieces >= _FRONT_MIN_PIECES:
        pack = FunctionPack.of(functions)
        try:
            return front_envelopes(
                pack, t_lo, t_hi, 1, lambda s, e: [le_alg(pack.functions, s, e)]
            )[0]
        except DegenerateArrangement:
            pass
    return le_alg(functions, t_lo, t_hi)


def le_alg(
    functions: Sequence[DistanceFunction], t_lo: float, t_hi: float
) -> Envelope:
    """``LE_Alg`` itself: the scalar recursion over ``Merge_LE`` and ``Env2``.

    Same arguments and result as :func:`lower_envelope`: its fallback, the
    algorithm Figure 11 times, and the oracle the front is tested against.
    """
    if not functions:
        raise ValueError("cannot build the lower envelope of an empty collection")
    if t_hi < t_lo:
        raise ValueError(f"empty window [{t_lo}, {t_hi}]")
    return _lower_envelope_recursive(list(functions), 0, len(functions), t_lo, t_hi)


def _lower_envelope_recursive(
    functions: Sequence[DistanceFunction],
    start: int,
    end: int,
    t_lo: float,
    t_hi: float,
) -> Envelope:
    """Envelope of ``functions[start:end]`` (non-empty) over the window."""
    count = end - start
    if count == 1:
        return Envelope([EnvelopePiece(functions[start], t_lo, t_hi)])
    middle = start + count // 2
    left = _lower_envelope_recursive(functions, start, middle, t_lo, t_hi)
    right = _lower_envelope_recursive(functions, middle, end, t_lo, t_hi)
    return merge_envelopes(left, right)
