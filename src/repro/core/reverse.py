"""Reverse and all-pairs continuous probabilistic NN queries (Section 7 extensions).

The paper's future work lists "other variants of continuous probabilistic NN
queries (e.g., all pairs, reverse)".  Both reduce to the machinery already in
place:

* **Reverse** — "which objects have the query among their own possible
  nearest neighbors?"  For each candidate ``o`` we build the query context
  *centred on o* and ask the ordinary UQ11/UQ12/UQ13 questions about the
  original query object.
* **All pairs** — the full relation: for every ordered pair ``(a, b)``,
  can ``b`` be the nearest neighbor of ``a`` at some time in the window?

Both are quadratic in the number of objects (they run N ordinary queries),
which is the natural cost of the problem.  The N queries run as one
plan (:func:`~repro.query_language.planner.plan_statements`) on one
:class:`~repro.engine.QueryEngine`, so they share the store's index filter,
one batched preparation and the 4r pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine import QueryEngine
from ..query_language.planner import PlannedStatement, plan_statements
from ..trajectories.mod import MovingObjectsDatabase
from .queries import QueryContext


@dataclass(frozen=True, slots=True)
class ReverseNNResult:
    """Reverse-NN outcome for one candidate object."""

    object_id: object
    sometime: bool
    always: bool
    fraction: float


def reverse_nn_query(
    mod: MovingObjectsDatabase,
    query_id: object,
    t_start: float,
    t_end: float,
    band_width: Optional[float] = None,
    candidate_ids: Optional[Sequence[object]] = None,
) -> List[ReverseNNResult]:
    """Objects that may have the query as *their* nearest neighbor.

    Args:
        mod: the moving objects database.
        query_id: the object whose "reverse neighbors" are sought.
        t_start: window start.
        t_end: window end.
        band_width: pruning band width used in each per-candidate context;
            defaults to the MOD's ``default_band_width`` (the paper's ``4r``).
        candidate_ids: restrict the reverse search to these objects.

    Returns:
        One :class:`ReverseNNResult` per candidate for which the query has a
        non-zero probability of being the nearest neighbor at some time,
        sorted by decreasing fraction of time.
    """
    if query_id not in mod:
        raise KeyError(f"unknown query object {query_id!r}")
    if candidate_ids is None:
        candidate_ids = [oid for oid in mod.object_ids if oid != query_id]

    centers = [oid for oid in candidate_ids if oid != query_id]
    results: List[ReverseNNResult] = []
    for center_id, context in zip(
        centers, _planned_contexts(mod, centers, t_start, t_end, band_width)
    ):
        if query_id not in context.functions or not context.uq11_sometime(query_id):
            continue
        results.append(
            ReverseNNResult(
                center_id,
                True,
                context.uq12_always(query_id),
                context.uq13_fraction(query_id),
            )
        )
    results.sort(key=lambda result: -result.fraction)
    return results


def all_pairs_nn_matrix(
    mod: MovingObjectsDatabase,
    t_start: float,
    t_end: float,
    band_width: Optional[float] = None,
) -> Dict[object, List[object]]:
    """For every object, the objects that can be its nearest neighbor sometime.

    Returns:
        Mapping ``a -> [b, ...]`` meaning *b has non-zero probability of being
        the nearest neighbor of a* at some time during the window.  The lists
        reuse UQ31 per center object, in store order.
    """
    centers = list(mod.object_ids)
    if len(centers) < 2:
        return {center_id: [] for center_id in centers}
    position = {object_id: k for k, object_id in enumerate(centers)}
    return {
        center_id: sorted(context.uq31_all_sometime(), key=position.__getitem__)
        for center_id, context in zip(
            centers, _planned_contexts(mod, centers, t_start, t_end, band_width)
        )
    }


def mutual_nn_pairs(
    mod: MovingObjectsDatabase,
    t_start: float,
    t_end: float,
    band_width: Optional[float] = None,
) -> List[Tuple[object, object]]:
    """Unordered pairs that can be each other's nearest neighbor sometime.

    Built on :func:`all_pairs_nn_matrix`: the pair ``{a, b}`` qualifies when
    ``b`` appears in ``a``'s candidate list and vice versa.  Useful for
    convoy/encounter detection on top of the probabilistic NN machinery.
    """
    matrix = all_pairs_nn_matrix(mod, t_start, t_end, band_width)
    pairs: List[Tuple[object, object]] = []
    seen = set()
    for a, candidates in matrix.items():
        for b in candidates:
            key = tuple(sorted((str(a), str(b))))
            if key in seen:
                continue
            if a in matrix.get(b, []):
                seen.add(key)
                pairs.append((a, b))
    return pairs


def _planned_contexts(
    mod: MovingObjectsDatabase,
    center_ids: Sequence[object],
    t_start: float,
    t_end: float,
    band_width: Optional[float],
) -> Tuple[QueryContext, ...]:
    """The query context centred on each id: one plan on one engine."""
    statements = [
        PlannedStatement(center_id, t_start, t_end, band_width) for center_id in center_ids
    ]
    return plan_statements(statements).execute(QueryEngine(mod)).contexts
