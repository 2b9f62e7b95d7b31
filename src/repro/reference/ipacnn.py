"""Reference Algorithm 3: the IPAC-NN tree by the paper's recursion.

1. build the level-1 lower envelope of the difference distance functions
   (Algorithm 1 / 2);
2. prune every object that never enters the 4r band above the envelope
   (zero probability of ever being the NN);
3. recursively, for every node's time interval, remove the node's own
   trajectory (and its ancestors on the path) and build the lower envelope
   of the remaining candidates restricted to that interval — its pieces are
   the node's children — stopping when a candidate piece lies entirely
   outside the band (it, and everything above it, has zero NN probability
   there).

One fresh lower envelope per node and one band test per piece.  The
production :func:`repro.core.ipacnn.build_ipac_tree` reads the same tree off
the level envelopes a context already holds (Theorem 2) and is pinned ``==``
to this recursion on candidates given in canonical (``str``-sorted) order;
in any other order ties between identical functions go to whichever comes
first here.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence

from ..core.answer import IPACNode, IPACTree
from ..core.pruning import PruningStatistics, is_within_band_sometime, prune_by_band
from ..geometry.envelope.divide_conquer import lower_envelope
from ..geometry.envelope.hyperbola import DistanceFunction
from ..geometry.envelope.pieces import Envelope


def build_ipac_tree(
    functions: Sequence[DistanceFunction],
    query_id: object,
    t_lo: float,
    t_hi: float,
    band_width: float,
    max_levels: Optional[int] = None,
    min_interval: float = 1e-6,
) -> IPACTree:
    """The IPAC-NN tree by the recursion; the arguments of
    :func:`repro.core.ipacnn.build_ipac_tree`, plus ``min_interval``: nodes
    shorter than it get no children and pieces shorter than it are dropped."""
    if t_hi < t_lo:
        raise ValueError(f"empty query window [{t_lo}, {t_hi}]")
    if band_width < 0:
        raise ValueError("band width must be non-negative")
    return _pruned_tree(
        functions, query_id, t_lo, t_hi, band_width, max_levels, min_interval
    )[0]


def _pruned_tree(
    functions: Sequence[DistanceFunction],
    query_id: object,
    t_lo: float,
    t_hi: float,
    band_width: float,
    max_levels: Optional[int],
    min_interval: float = 1e-6,
) -> tuple[IPACTree, Envelope, PruningStatistics]:
    """One envelope, one band pruning, one tree."""
    if not functions:
        empty_stats = PruningStatistics(0, 0)
        return IPACTree(query_id, t_lo, t_hi, []), None, empty_stats  # type: ignore[return-value]
    envelope = lower_envelope(functions, t_lo, t_hi)
    survivors, stats = prune_by_band(functions, envelope, band_width, t_lo, t_hi)
    by_id: Dict[object, DistanceFunction] = {f.object_id: f for f in survivors}

    builder = _TreeBuilder(
        by_id=by_id,
        level1_envelope=envelope,
        band_width=band_width,
        max_levels=max_levels,
        min_interval=min_interval,
    )
    roots: List[IPACNode] = []
    for piece in envelope.pieces:
        node = IPACNode(piece.object_id, piece.t_start, piece.t_end, level=1)
        node.children = builder.build_children(
            node, excluded=frozenset([piece.object_id])
        )
        roots.append(node)
    return IPACTree(query_id, t_lo, t_hi, roots), envelope, stats


class _TreeBuilder:
    """Recursive child construction shared by all first-level nodes."""

    def __init__(
        self,
        by_id: Dict[object, DistanceFunction],
        level1_envelope: Envelope,
        band_width: float,
        max_levels: Optional[int],
        min_interval: float,
    ):
        self._by_id = by_id
        self._level1_envelope = level1_envelope
        self._band_width = band_width
        self._max_levels = max_levels
        self._min_interval = min_interval

    def build_children(
        self, parent: IPACNode, excluded: FrozenSet[object]
    ) -> List[IPACNode]:
        """Children of ``parent``: next-envelope pieces inside the band."""
        next_level = parent.level + 1
        if self._max_levels is not None and next_level > self._max_levels:
            return []
        if parent.t_end - parent.t_start < self._min_interval:
            return []
        candidates = [
            function
            for object_id, function in self._by_id.items()
            if object_id not in excluded
        ]
        if not candidates:
            return []

        envelope = lower_envelope(candidates, parent.t_start, parent.t_end)
        children: List[IPACNode] = []
        for piece in envelope.pieces:
            if piece.duration < self._min_interval:
                continue
            # A piece whose owner never enters the band on this interval has
            # zero NN probability there — and so does everything above it,
            # because the owner is the lowest remaining function.  Stop.
            if not is_within_band_sometime(
                piece.function,
                self._level1_envelope,
                self._band_width,
                piece.t_start,
                piece.t_end,
            ):
                continue
            child = IPACNode(piece.object_id, piece.t_start, piece.t_end, level=next_level)
            child.children = self.build_children(
                child, excluded=excluded | {piece.object_id}
            )
            children.append(child)
        return children
