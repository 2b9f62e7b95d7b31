"""``LE_Alg`` (Algorithm 1): divide-and-conquer lower envelope construction.

The recursion mirrors MergeSort: split the set of distance functions in two,
construct each half's envelope, and combine them with ``Merge_LE``.  Because
two hyperbolic distance functions cross at most twice, the envelope's
combinatorial complexity is linear in the number of functions
(Davenport–Schinzel λ₂), and the overall running time is O(N log N) — the
asymptotic advantage demonstrated by Figure 11 of the paper.

:func:`le_alg` is that recursion over the same index tree, less the
subtrees it can prove buried under their sibling's envelope: on a dirty slab
most rows lie far above the few that own it, so a slab costs the rows that
can reach its envelope.  The plain recursion is
:func:`repro.reference.envelope.le_alg`, the oracle every entry here is
pinned ``==`` to and what Figure 11 times.  :func:`lower_envelope`, the
entry the serving stack imports, builds the same envelope with the kinetic
front of :mod:`repro.geometry.envelope.bulk` and runs :func:`le_alg` on what
the front cannot serve.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .bulk import (
    _NEAR,
    _SLOTS,
    DegenerateArrangement,
    FunctionPack,
    count_recursion,
    front_envelopes,
    slot_bounds,
)
from .hyperbola import DistanceFunction
from .merge import merge_envelopes
from .pieces import Envelope, EnvelopePiece

#: Below this many pieces the recursion beats the front's fixed cost.  The
#: serving caller left is ``QueryContext.build``; in 3 s of each end-to-end
#: workload only ``dash_refresh`` built contexts this small (18 of 266).  On
#: random single-segment sets (one Xeon core), ``le_alg`` took 0.11 ms and the
#: front 1.5 ms at 3 functions, and the front was ahead from 32 functions on.
_FRONT_MIN_PIECES = 64

#: Below this many rows ``le_alg`` merges every subtree: bounding the halves
#: would cost more than the merges a skip can save.
_SKIP_MIN_ROWS = 16


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
        functions = FunctionPack.of(functions)
        try:
            return front_envelopes(
                functions, t_lo, t_hi, 1, lambda s, e: [le_alg(functions, s, e)]
            )[0]
        except DegenerateArrangement:
            pass
    return le_alg(functions, t_lo, t_hi)


def le_alg(
    functions: Sequence[DistanceFunction], t_lo: float, t_hi: float
) -> Envelope:
    """``LE_Alg`` itself: the recursion over ``Merge_LE`` and ``Env2``, minus
    the subtrees buried under their sibling's envelope.

    Same arguments and result as :func:`lower_envelope` (a pack too), and
    ``==`` to :func:`repro.reference.envelope.le_alg`, the plain recursion:
    it walks the same index tree and runs every merge it does not skip as
    that recursion does.  It skips a half only where :class:`_Burial` proves
    the merge would hand back its sibling's envelope unchanged, so a slab
    costs the rows that can reach its envelope, not all of its rows.
    """
    if not functions:
        raise ValueError("cannot build the lower envelope of an empty collection")
    if t_hi < t_lo:
        raise ValueError(f"empty window [{t_lo}, {t_hi}]")
    burial = None
    if len(functions) >= _SKIP_MIN_ROWS:
        burial = _Burial(FunctionPack.of(functions), t_lo, t_hi)
        functions = burial.pack
    envelope = _recurse(functions, 0, len(functions), t_lo, t_hi, burial)
    count_recursion(burial.built if burial else len(functions), len(functions))
    return envelope


def _recurse(
    functions: Sequence[DistanceFunction],
    start: int,
    end: int,
    t_lo: float,
    t_hi: float,
    burial: Optional["_Burial"],
) -> Envelope:
    """Envelope of ``functions[start:end]`` (non-empty) over the window."""
    count = end - start
    if count == 1:
        if burial is not None:
            burial.built += 1
        return Envelope([EnvelopePiece(functions[start], t_lo, t_hi)])
    middle = start + count // 2
    halves = ((start, middle), (middle, end))
    side = None if burial is None else burial.side(start, middle, end)
    if side is None:
        left, right = (_recurse(functions, *half, t_lo, t_hi, burial) for half in halves)
        return merge_envelopes(left, right)
    kept = _recurse(functions, *halves[1 - side], t_lo, t_hi, burial)
    if burial.certifies(kept, *halves[side]):
        return kept
    other = _recurse(functions, *halves[side], t_lo, t_hi, burial)
    return merge_envelopes(other, kept) if side == 0 else merge_envelopes(kept, other)


class _Burial:
    """Which half of each node of the recursion lies buried under the other,
    and the certificate that merging it would change nothing.

    *Buried*: on every one of ``_SLOTS`` slots, the smallest slot maximum of
    the kept half's rows (a ceiling on its envelope) lies more than ``reach
    = 4 sqrt(max a) _NEAR`` below the slot minimum of every row of the other
    half (:func:`~repro.geometry.envelope.bulk.slot_bounds`, closed form), so
    the kept half wins every comparison ``Merge_LE`` makes.  The merge then
    coalesces back to the kept envelope, except where a critical time of the
    buried half lands within about twice the time tolerance of one of the
    kept envelope's: the sweep keeps the earlier of the two times, and
    ``piece_at`` reads the previous piece at a midpoint that close to a
    boundary.

    *Certified*: at every critical time of the kept envelope, the buried
    half's two lowest rows are more than ``2 sqrt(max a) _NEAR`` apart (a
    distance moves at most ``sqrt(a)`` a minute, so its envelope changes
    owner nowhere within ``_NEAR``), and no row jumps within ``_NEAR``.
    """

    def __init__(self, pack: FunctionPack, t_lo: float, t_hi: float):
        self.pack, self.built = pack, 0
        self.reach = 4.0 * float(np.sqrt(np.abs(pack.a).max())) * _NEAR
        self.jumps = np.sort(pack.starts[pack.jumping()])
        # Per row, its slot minima and then its slot maxima.
        self.bounds = np.concatenate(slot_bounds(pack, t_lo, t_hi, _SLOTS), axis=1)

    def side(self, start: int, middle: int, end: int) -> Optional[int]:
        """0 if rows ``start:middle`` lie buried under rows ``middle:end``, 1
        if the other way round, ``None`` if neither."""
        halves = self.bounds[start:middle].min(axis=0), self.bounds[middle:end].min(axis=0)
        for side, (other, kept) in enumerate((halves, halves[::-1])):
            if (other[:_SLOTS] > kept[_SLOTS:] + self.reach).all():
                return side
        return None

    def certifies(self, kept: Envelope, start: int, end: int) -> bool:
        """Whether merging ``kept`` with the buried rows ``start:end`` hands
        ``kept`` back: nothing of theirs moves within ``_NEAR`` of its
        critical times."""
        times = np.array(kept.critical_times)
        if self.jumps.size and np.any(
            np.searchsorted(self.jumps, times + _NEAR, "right")
            > np.searchsorted(self.jumps, times - _NEAR, "left")
        ):
            return False
        if end - start == 1:
            return True
        pack, offsets = self.pack, self.pack.offsets
        # Each buried row's piece at each time, as ``piece_at`` finds it.
        first, last = offsets[start:end], offsets[start + 1 : end + 1] - 1
        before = pack.ends[first[0] : last[-1] + 1] < times[:, None]
        local = np.add.reduceat(before, first - first[0], axis=1, dtype=np.int64)
        values = pack.values_at(times[:, None], np.minimum(first + local, last))
        lowest = np.partition(values, 1, axis=1)
        return bool(np.all(lowest[:, 1] - lowest[:, 0] > self.reach / 2.0))
