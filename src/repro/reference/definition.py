"""The query semantics evaluated straight from their definitions.

Written from ``docs/query-semantics.md`` and the uncertainty model alone:
every object is somewhere in a disk of radius ``r`` around its expected
location, so at time ``t`` the distance between candidate ``o`` and query
``q`` lies within ``2r`` of ``dist(o, q)(t)``, the distance between their
expected locations.  Hence

    ``o`` can be the nearest neighbour of ``q`` at ``t``
    iff  ``dist(o, q)(t) - 2r  <=  min_j dist(j, q)(t) + 2r``
    iff  ``dist(o, q)(t)  <=  min_j dist(j, q)(t) + band``,  ``band = 4r``.

The rank operators order, at each instant, the objects that can be the
nearest neighbour at *some* time of the window (the UQ31 answer) by that
expected distance, ties by ``str(id)``.

Everything is evaluated at dense time samples through
:meth:`~repro.trajectories.trajectory.Trajectory.position_at` — no
hyperbolas, no envelopes, no intervals, no root finding — so a sample answer
is exact at its instant and blind between instants.  The production
kernels and their bit-identical references share one derivation; this is
the check that the derivation matches the definition
(``tests/property/test_definition_oracle.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..trajectories.mod import MovingObjectsDatabase
from ..trajectories.trajectory import Trajectory


@dataclass(frozen=True)
class SampledSemantics:
    """Expected distances of every candidate to the query at sampled times.

    Attributes:
        times: the ``T`` sample times, evenly spaced over the window.
        object_ids: the ``N`` candidates (every stored object but the query).
        distances: ``(N, T)`` array, ``dist(o, q)(t)``.
        band_width: ``4r``.
    """

    times: np.ndarray
    object_ids: Tuple[object, ...]
    distances: np.ndarray
    band_width: float

    def slack(self) -> np.ndarray:
        """``min_j dist(j, q)(t) + band - dist(o, q)(t)``, shape ``(N, T)``."""
        return self.distances.min(axis=0) + self.band_width - self.distances

    def possible_nn(self) -> np.ndarray:
        """``(N, T)`` booleans: can ``o`` be the nearest neighbour at ``t``?"""
        return self.slack() >= 0.0

    def _possible(self, object_id: object) -> np.ndarray:
        return self.possible_nn()[self.object_ids.index(object_id)]

    def uq11_sometime(self, object_id: object) -> bool:
        """UQ11 on the samples."""
        return bool(self._possible(object_id).any())

    def uq12_always(self, object_id: object) -> bool:
        """UQ12 on the samples."""
        return bool(self._possible(object_id).all())

    def uq13_fraction(self, object_id: object) -> float:
        """UQ13 on the samples: the share of them at which ``o`` can be the NN."""
        return float(self._possible(object_id).mean())

    def uq31_all_sometime(self) -> List[object]:
        """UQ31 on the samples."""
        sometime = self.possible_nn().any(axis=1)
        return [oid for oid, member in zip(self.object_ids, sometime) if member]

    def ranking_at(self, sample: int) -> List[object]:
        """The UQ31 members by expected distance at one sample, nearest first."""
        members = set(self.uq31_all_sometime())
        order = sorted(
            (index for index, oid in enumerate(self.object_ids) if oid in members),
            key=lambda index: (
                self.distances[index, sample],
                str(self.object_ids[index]),
            ),
        )
        return [self.object_ids[index] for index in order]

    def uq41_all_rank_sometime(self, k: int) -> List[object]:
        """UQ41 on the samples: members ranked within the top ``k`` at a sample."""
        seen: List[object] = []
        for sample in range(self.times.size):
            for oid in self.ranking_at(sample)[:k]:
                if oid not in seen:
                    seen.append(oid)
        return seen


def sample_semantics(
    mod: MovingObjectsDatabase,
    query_id: object,
    t_lo: float,
    t_hi: float,
    samples: int = 201,
    band_width: Optional[float] = None,
) -> SampledSemantics:
    """Sample every candidate's expected distance to the query over a window.

    Args:
        samples: number of evenly spaced sample times, window ends included.
        band_width: defaults to ``4r`` for the MOD's common uncertainty
            radius ``r``.

    Raises:
        ValueError: when ``band_width`` is left to default and the stored
            radii differ (the ``4r`` derivation assumes one radius).
    """
    query = mod.get(query_id)
    candidates = [
        trajectory for trajectory in mod if trajectory.object_id != query_id
    ]
    if band_width is None:
        radii = {trajectory.radius for trajectory in mod}
        if len(radii) != 1:
            raise ValueError(f"4r needs one common radius, found {sorted(radii)}")
        band_width = 4.0 * radii.pop()
    times = np.linspace(t_lo, t_hi, samples)
    distances = np.empty((len(candidates), samples))
    for column, t in enumerate(times.tolist()):
        origin = query.position_at(t)
        for row, candidate in enumerate(candidates):
            position = candidate.position_at(t)
            distances[row, column] = math.hypot(
                position.x - origin.x, position.y - origin.y
            )
    return SampledSemantics(
        times=times,
        object_ids=tuple(candidate.object_id for candidate in candidates),
        distances=distances,
        band_width=band_width,
    )


def relative_position_at(
    trajectory: Trajectory, query: Trajectory, t: float
) -> Tuple[float, float]:
    """Expected location of the difference object ``TR_iq`` at time ``t``."""
    pos_i = trajectory.position_at(t)
    pos_q = query.position_at(t)
    return (pos_i.x - pos_q.x, pos_i.y - pos_q.y)


def expected_distance_at(trajectory: Trajectory, query: Trajectory, t: float) -> float:
    """Distance between expected locations at time ``t`` (no uncertainty)."""
    return trajectory.position_at(t).distance_to(query.position_at(t))
