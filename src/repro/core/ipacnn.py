"""Algorithm 3: the IPAC-NN tree, read off the level envelopes.

Theorem 2 of the paper identifies the IPAC-NN tree with the stack of
envelope levels inside the 4r band: the tree is that stack with parent
links.  The children of a node that A owns on ``[t0, t1]`` are the pieces
of the next level there, because the next level is the lower envelope of
what the node's path has not used yet.  So:

* the roots are the pieces of level 1;
* the children of a level-(j−1) node are the level-j pieces clipped to its
  interval, less those whose owner never enters the band there: it has
  zero NN probability on that piece, and so does everything above it.

The levels are the context's (:meth:`QueryContext.level_envelopes`, over the
band survivors in canonical order), so the tree does not depend on the order
of the candidates, and each level's clipped pieces are band-tested in one
:func:`band_intervals_many` pass.  The paper's recursion, one lower envelope
per node, is :mod:`repro.reference.ipacnn`, the oracle this is pinned ``==``
to.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Optional, Sequence

from ..geometry.envelope.hyperbola import DistanceFunction
from .answer import IPACNode, IPACTree
from .pruning import band_intervals_many

if TYPE_CHECKING:  # pragma: no cover - import-cycle-safe type-only import
    from .queries import QueryContext

#: Nodes shorter than this get no children, and clipped pieces shorter than
#: it are dropped (numerical slivers).
_MIN_INTERVAL = 1e-6


def build_ipac_tree(
    functions: Sequence[DistanceFunction],
    query_id: object,
    t_lo: float,
    t_hi: float,
    band_width: float,
    max_levels: Optional[int] = None,
) -> IPACTree:
    """Construct the IPAC-NN tree for a continuous probabilistic NN query.

    Args:
        functions: difference distance functions of every candidate (one per
            non-query trajectory), covering ``[t_lo, t_hi]``.
        query_id: identifier of the query trajectory (stored on the tree).
        t_lo: query window start.
        t_hi: query window end.
        band_width: pruning band width (``4r`` for the paper's equal-radius
            uniform model).
        max_levels: optional cap on the tree depth (``None`` = until no
            candidate with non-zero probability remains).

    Returns:
        The :class:`IPACTree` of a context built over ``functions``.  An
        empty candidate set yields a tree with no nodes.
    """
    if t_hi < t_lo:
        raise ValueError(f"empty query window [{t_lo}, {t_hi}]")
    if band_width < 0:
        raise ValueError("band width must be non-negative")
    if not functions:
        return IPACTree(query_id, t_lo, t_hi, [])
    from .queries import QueryContext  # local import: queries imports this module

    context = QueryContext.build(functions, query_id, t_lo, t_hi, band_width)
    return context.ipac_tree(max_levels)


def read_ipac_tree(context: "QueryContext", max_levels: Optional[int]) -> IPACTree:
    """The IPAC-NN tree of a context, to ``max_levels`` levels (``None``: all)."""
    depth = len(context.pack) if max_levels is None else max(max_levels, 1)
    levels = context.level_envelopes(depth)
    roots = [
        IPACNode(piece.object_id, piece.t_start, piece.t_end, level=1)
        for piece in levels.level(1).pieces
    ]
    parents = roots
    for level in range(2, min(depth, len(levels)) + 1):
        pieces = levels.level(level).pieces
        ends = [piece.t_end for piece in pieces]
        clipped = []
        for parent in parents:
            if parent.duration < _MIN_INTERVAL:
                continue
            index = bisect_right(ends, parent.t_start)
            while index < len(pieces) and pieces[index].t_start < parent.t_end:
                piece = pieces[index]
                index += 1
                start = max(piece.t_start, parent.t_start)
                end = min(piece.t_end, parent.t_end)
                if end - start >= _MIN_INTERVAL:
                    clipped.append((parent, piece.function, start, end))
        inside = band_intervals_many([
            ([function], context.envelope, context.band_width, start, end)
            for _, function, start, end in clipped
        ])
        parents = []
        for (parent, function, start, end), band in zip(clipped, inside):
            if band.starts.size:
                child = IPACNode(function.object_id, start, end, level=level)
                parent.children.append(child)
                parents.append(child)
        if not parents:
            break
    return IPACTree(context.query_id, context.t_start, context.t_end, roots)
