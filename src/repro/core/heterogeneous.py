"""Heterogeneous uncertainty radii — the paper's Section 7 extension.

The paper assumes every trajectory shares one uncertainty radius ``r``, which
makes the pruning band a uniform ``4r``.  Section 7 lists "different
uncertainty zones of the object locations (circles with different radii)" as
future work.  The generalization is direct: an object ``i`` with radius
``r_i`` can have non-zero probability of being the nearest neighbor of the
query (radius ``r_q``) at time ``t`` only if

``d_i(t) <= min_j d_j(t) + (r_i + r_q) + min_j (r_j + r_q)``

because the query-relative convolved pdf of ``i`` has support ``r_i + r_q``
and the current best candidate ``j`` can be up to ``r_j + r_q`` closer than
its expected distance.  With equal radii this collapses to the paper's
``4r``.  The :class:`HeterogeneousQueryContext` below implements Category 1
and Category 3 queries under that per-candidate band; rank-based categories
still use ranking by expected distance, which remains valid as long as all
pdfs are equal modulo translation — for genuinely different radii the ranking
is only a (good) approximation, which is documented on the methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..geometry.envelope.divide_conquer import lower_envelope
from ..geometry.envelope.hyperbola import DistanceFunction
from ..geometry.envelope.pieces import Envelope
from ..trajectories.mod import MovingObjectsDatabase
from .pruning import (
    PruningStatistics,
    band_intervals,
    is_within_band_always,
    is_within_band_sometime,
    time_within_band,
)
from .tolerances import FULL_WINDOW_SLACK


@dataclass
class HeterogeneousQueryContext:
    """Query context for candidates with per-object uncertainty radii.

    Attributes:
        query_id: identifier of the query trajectory.
        t_start: query window start.
        t_end: query window end.
        query_radius: uncertainty radius of the query trajectory.
        functions: distance functions keyed by object id.
        radii: uncertainty radius of every candidate, keyed by object id.
        envelope: the level-1 lower envelope of all candidates.
    """

    query_id: object
    t_start: float
    t_end: float
    query_radius: float
    functions: Dict[object, DistanceFunction]
    radii: Dict[object, float]
    envelope: Envelope
    _min_reach: Optional[float] = None

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    @staticmethod
    def build(
        functions: Sequence[DistanceFunction],
        radii: Dict[object, float],
        query_id: object,
        query_radius: float,
        t_start: float,
        t_end: float,
    ) -> "HeterogeneousQueryContext":
        """Build the context; every function needs a radius entry."""
        if not functions:
            raise ValueError("need at least one candidate distance function")
        if t_end < t_start:
            raise ValueError(f"empty query window [{t_start}, {t_end}]")
        if query_radius < 0:
            raise ValueError("the query radius must be non-negative")
        by_id = {function.object_id: function for function in functions}
        if len(by_id) != len(functions):
            raise ValueError("distance functions must have unique object ids")
        missing = [oid for oid in by_id if oid not in radii]
        if missing:
            raise ValueError(f"missing uncertainty radii for candidates: {missing}")
        negative = [oid for oid, r in radii.items() if r < 0]
        if negative:
            raise ValueError(f"negative uncertainty radii for candidates: {negative}")
        envelope = lower_envelope(list(functions), t_start, t_end)
        return HeterogeneousQueryContext(
            query_id=query_id,
            t_start=t_start,
            t_end=t_end,
            query_radius=query_radius,
            functions=by_id,
            radii={oid: radii[oid] for oid in by_id},
            envelope=envelope,
        )

    @staticmethod
    def from_mod(
        mod: MovingObjectsDatabase,
        query_id: object,
        t_start: float,
        t_end: float,
        candidate_ids: Optional[Sequence[object]] = None,
    ) -> "HeterogeneousQueryContext":
        """Build the context directly from a MOD with mixed radii."""
        query = mod.get(query_id)
        functions = mod.distance_functions(
            query_id, t_start, t_end, candidate_ids=candidate_ids
        )
        radii = {
            trajectory.object_id: trajectory.radius
            for trajectory in mod
            if trajectory.object_id != query_id
        }
        return HeterogeneousQueryContext.build(
            functions, radii, query_id, query.radius, t_start, t_end
        )

    # ------------------------------------------------------------------
    # Per-candidate band widths.
    # ------------------------------------------------------------------

    @property
    def duration(self) -> float:
        """Length of the query window."""
        return self.t_end - self.t_start

    def reach_of(self, object_id: object) -> float:
        """Support radius of the query-relative pdf of a candidate: ``r_i + r_q``."""
        if object_id not in self.radii:
            raise KeyError(f"unknown candidate {object_id!r}")
        return self.radii[object_id] + self.query_radius

    def minimum_reach(self) -> float:
        """The smallest ``r_j + r_q`` over all candidates (cached)."""
        if self._min_reach is None:
            self._min_reach = min(self.reach_of(oid) for oid in self.functions)
        return self._min_reach

    def band_width_for(self, object_id: object) -> float:
        """Pruning band width of one candidate.

        ``(r_i + r_q) + min_j (r_j + r_q)`` — with equal radii this is ``4r``,
        matching the paper's band.
        """
        return self.reach_of(object_id) + self.minimum_reach()

    def function_of(self, object_id: object) -> DistanceFunction:
        """Distance function of a candidate."""
        if object_id == self.query_id:
            raise KeyError("the query trajectory is not a candidate of its own query")
        if object_id not in self.functions:
            raise KeyError(f"unknown candidate {object_id!r}")
        return self.functions[object_id]

    # ------------------------------------------------------------------
    # Category 1 under heterogeneous radii.
    # ------------------------------------------------------------------

    def uq11_sometime(self, object_id: object) -> bool:
        """Non-zero NN probability at some time, with this candidate's own band."""
        return is_within_band_sometime(
            self.function_of(object_id),
            self.envelope,
            self.band_width_for(object_id),
            self.t_start,
            self.t_end,
        )

    def uq12_always(self, object_id: object) -> bool:
        """Non-zero NN probability throughout the window."""
        return is_within_band_always(
            self.function_of(object_id),
            self.envelope,
            self.band_width_for(object_id),
            self.t_start,
            self.t_end,
        )

    def uq13_fraction(self, object_id: object) -> float:
        """Fraction of the window with non-zero NN probability."""
        if self.duration <= 0:
            return 1.0 if self.uq11_sometime(object_id) else 0.0
        covered = time_within_band(
            self.function_of(object_id),
            self.envelope,
            self.band_width_for(object_id),
            self.t_start,
            self.t_end,
        )
        return min(1.0, covered / self.duration)

    def nonzero_probability_intervals(
        self, object_id: object
    ) -> List[Tuple[float, float]]:
        """Exact sub-intervals with non-zero NN probability for one candidate."""
        return band_intervals(
            self.function_of(object_id),
            self.envelope,
            self.band_width_for(object_id),
            self.t_start,
            self.t_end,
        )

    # ------------------------------------------------------------------
    # Category 3 under heterogeneous radii.
    # ------------------------------------------------------------------

    def all_sometime(self) -> List[object]:
        """All candidates with non-zero NN probability at some time."""
        return [oid for oid in self.functions if self.uq11_sometime(oid)]

    def all_always(self) -> List[object]:
        """All candidates with non-zero NN probability throughout the window."""
        return [oid for oid in self.functions if self.uq12_always(oid)]

    def all_at_least(self, fraction: float) -> List[object]:
        """All candidates with non-zero NN probability at least ``fraction`` of the window."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        return [
            oid
            for oid in self.functions
            if self.uq13_fraction(oid) >= fraction - FULL_WINDOW_SLACK
        ]

    def pruning_statistics(self) -> PruningStatistics:
        """Survivor counts under the per-candidate bands (Figure 13 analogue)."""
        survivors = self.all_sometime()
        return PruningStatistics(len(self.functions), len(survivors))
