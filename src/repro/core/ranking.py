"""Instantaneous ranking: Theorem 1 and its validation.

Theorem 1 of the paper: for objects whose location pdfs are equal modulo
translation and rotationally symmetric, the ranking of NN *probabilities*
with respect to an (uncertain) query object equals the ranking of the
*distances between expected locations*.  This is the result that lets every
continuous query run purely on the geometric distance functions.

This module provides both sides of that equivalence so the claim can be
checked empirically (ablation A1 of DESIGN.md):

* :func:`ranking_by_expected_distance` — the cheap side (sort by distance);
* :func:`ranking_by_nn_probability` — the expensive side (numeric Eq. 5 on
  the convolved pdfs);
* :func:`monte_carlo_ranking` — a sampling-based referee;
* :func:`validate_theorem1` — compare the top-k prefixes of the rankings.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..trajectories.mod import MovingObjectsDatabase
from ..uncertainty.convolution import difference_pdf
from ..uncertainty.nn_probability import (
    monte_carlo_nn_probabilities,
    nn_probabilities,
)
from ..uncertainty.pdf import CrispPDF
from ..uncertainty.within_distance import WithinDistanceProfile

# The convolution of two pdfs depends only on the pdf objects, not on the
# trajectories or the time instant, and in the paper's model every candidate
# shares one pdf — so the (possibly numeric, seconds-long) convolution is
# computed once per distinct pdf pair and reused across candidates and time
# instants.  The cache holds its key pdfs, so a freed pdf's address can never
# be read back as another pair's convolution.
_cached_difference_pdf = functools.lru_cache(maxsize=64)(difference_pdf)


@dataclass(frozen=True, slots=True)
class RankingComparison:
    """Result of comparing the distance ranking against a probability ranking."""

    distance_ranking: tuple
    probability_ranking: tuple
    agreement_prefix: int

    @property
    def agrees(self) -> bool:
        """True when the compared prefixes are identical."""
        return self.agreement_prefix >= min(
            len(self.distance_ranking), len(self.probability_ranking)
        )


def expected_distances_at(
    mod: MovingObjectsDatabase, query_id: object, t: float
) -> Dict[object, float]:
    """Distance between expected locations of every object and the query at ``t``."""
    query = mod.get(query_id)
    query_position = query.position_at(t)
    distances = {}
    for trajectory in mod:
        if trajectory.object_id == query_id:
            continue
        distances[trajectory.object_id] = query_position.distance_to(
            trajectory.position_at(t)
        )
    return distances


def ranking_by_expected_distance(
    mod: MovingObjectsDatabase, query_id: object, t: float
) -> List[object]:
    """Theorem 1 ranking: candidate ids sorted by expected-location distance."""
    distances = expected_distances_at(mod, query_id, t)
    return [
        object_id
        for object_id, _ in sorted(distances.items(), key=lambda item: (item[1], str(item[0])))
    ]


def ranking_by_nn_probability(
    mod: MovingObjectsDatabase,
    query_id: object,
    t: float,
    grid_size: int = 256,
    query_is_crisp: bool = False,
) -> List[object]:
    """Ranking by numerically-evaluated NN probability (Eq. 5) at time ``t``.

    The query's uncertainty is folded into every candidate via the
    convolution transformation of Section 3.1: each candidate's effective pdf
    is the pdf of ``V_i − V_q`` and the reference point becomes crisp.
    """
    query = mod.get(query_id)
    query_pdf = CrispPDF() if query_is_crisp else query.pdf
    distances = expected_distances_at(mod, query_id, t)

    profiles = []
    for trajectory in mod:
        if trajectory.object_id == query_id:
            continue
        effective_pdf = _cached_difference_pdf(trajectory.pdf, query_pdf)
        profiles.append(
            WithinDistanceProfile(
                trajectory.object_id,
                distances[trajectory.object_id],
                effective_pdf,
            )
        )
    probabilities = nn_probabilities(profiles, grid_size=grid_size)
    return [
        object_id
        for object_id, _ in sorted(
            ((oid, result.exclusive) for oid, result in probabilities.items()),
            key=lambda item: (-item[1], str(item[0])),
        )
    ]


def nn_probability_snapshot(
    mod: MovingObjectsDatabase,
    query_id: object,
    t: float,
    grid_size: int = 256,
    query_is_crisp: bool = False,
) -> Dict[object, float]:
    """Exclusive NN probability of every candidate at time ``t``."""
    query = mod.get(query_id)
    query_pdf = CrispPDF() if query_is_crisp else query.pdf
    distances = expected_distances_at(mod, query_id, t)
    profiles = []
    for trajectory in mod:
        if trajectory.object_id == query_id:
            continue
        effective_pdf = _cached_difference_pdf(trajectory.pdf, query_pdf)
        profiles.append(
            WithinDistanceProfile(
                trajectory.object_id, distances[trajectory.object_id], effective_pdf
            )
        )
    results = nn_probabilities(profiles, grid_size=grid_size)
    return {object_id: result.exclusive for object_id, result in results.items()}


def monte_carlo_ranking(
    mod: MovingObjectsDatabase,
    query_id: object,
    t: float,
    samples: int = 20_000,
    rng: Optional[np.random.Generator] = None,
) -> List[object]:
    """Ranking by Monte-Carlo NN probability at time ``t`` (slow, test oracle)."""
    query = mod.get(query_id)
    query_position = query.position_at(t)
    object_ids = []
    centers = []
    pdfs = []
    for trajectory in mod:
        if trajectory.object_id == query_id:
            continue
        position = trajectory.position_at(t)
        object_ids.append(trajectory.object_id)
        centers.append((position.x, position.y))
        pdfs.append(trajectory.pdf)
    probabilities = monte_carlo_nn_probabilities(
        object_ids,
        np.array(centers),
        pdfs,
        np.array((query_position.x, query_position.y)),
        query.pdf,
        samples=samples,
        rng=rng,
    )
    return [
        object_id
        for object_id, _ in sorted(
            probabilities.items(), key=lambda item: (-item[1], str(item[0]))
        )
    ]


def validate_theorem1(
    mod: MovingObjectsDatabase,
    query_id: object,
    t: float,
    top_k: int = 3,
    grid_size: int = 256,
    probability_floor: float = 1e-4,
) -> RankingComparison:
    """Compare the distance ranking with the probability ranking at time ``t``.

    Theorem 1 orders the candidates whose NN probability is non-zero; objects
    with (numerically) zero probability are unranked ties, so the comparison
    is restricted to the prefix whose probabilities exceed
    ``probability_floor``.

    Args:
        mod: the moving objects database.
        query_id: id of the query trajectory.
        t: time instant of the comparison.
        top_k: maximum length of the ranking prefix to compare.
        grid_size: quadrature resolution of the probability evaluation.
        probability_floor: candidates below this probability are excluded
            from the comparison (their relative order carries no information).
    """
    snapshot = nn_probability_snapshot(mod, query_id, t, grid_size=grid_size)
    meaningful = sum(1 for value in snapshot.values() if value > probability_floor)
    top_k = max(1, min(top_k, meaningful))
    by_distance = tuple(ranking_by_expected_distance(mod, query_id, t)[:top_k])
    by_probability = tuple(
        ranking_by_nn_probability(mod, query_id, t, grid_size=grid_size)[:top_k]
    )
    agreement = 0
    for first, second in zip(by_distance, by_probability):
        if first != second:
            break
        agreement += 1
    return RankingComparison(by_distance, by_probability, agreement)
