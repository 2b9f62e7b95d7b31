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
  the convolved pdfs, read off :func:`nn_probability_matrix`, the one
  evaluator of Eq. 5 over a store);
* :func:`monte_carlo_ranking` — a sampling-based referee;
* :func:`validate_theorem1` — compare the top-k prefixes of the rankings.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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


def nn_probability_matrix(
    mod: MovingObjectsDatabase,
    query_id: object,
    times: Sequence[float],
    grid_size: int = 256,
    query_is_crisp: bool = False,
) -> Tuple[List[object], np.ndarray]:
    """Exclusive NN probability (Eq. 5) of every candidate at every time.

    The one evaluator of the probability half: every entry point below and
    in :mod:`~repro.core.thresholds` and :mod:`~repro.core.descriptors`
    reads it.  The query's uncertainty is folded into every candidate via
    the convolution transformation of Section 3.1: each candidate's
    effective pdf is the pdf of ``V_i − V_q`` (built once per pdf pair) and
    the reference point becomes crisp.

    Returns:
        The candidate ids in store order, and an array of shape
        ``(len(times), len(ids))`` whose row ``k`` holds the probabilities
        at ``times[k]``.
    """
    query = mod.get(query_id)
    query_pdf = CrispPDF() if query_is_crisp else query.pdf
    candidates = [trajectory for trajectory in mod if trajectory.object_id != query_id]
    ids = [trajectory.object_id for trajectory in candidates]
    pdfs = [_cached_difference_pdf(trajectory.pdf, query_pdf) for trajectory in candidates]
    matrix = np.empty((len(times), len(ids)))
    for row, t in enumerate(times):
        distances = expected_distances_at(mod, query_id, float(t))
        results = nn_probabilities(
            [
                WithinDistanceProfile(object_id, distances[object_id], pdf)
                for object_id, pdf in zip(ids, pdfs)
            ],
            grid_size=grid_size,
        )
        matrix[row] = [results[object_id].exclusive for object_id in ids]
    return ids, matrix


def probability_columns(
    ids: Sequence[object], matrix: np.ndarray, wanted: Sequence[object]
) -> Dict[object, List[float]]:
    """Each wanted id's probabilities over the times of :func:`nn_probability_matrix`;
    zeros for an id that is not a candidate."""
    column = {object_id: k for k, object_id in enumerate(ids)}
    return {
        object_id: (
            matrix[:, column[object_id]].tolist()
            if object_id in column
            else [0.0] * len(matrix)
        )
        for object_id in wanted
    }


def _by_descending_probability(probabilities: Dict[object, float]) -> List[object]:
    """Ids by decreasing probability, ties by ``str`` of the id."""
    return [
        object_id
        for object_id, _ in sorted(
            probabilities.items(), key=lambda item: (-item[1], str(item[0]))
        )
    ]


def ranking_by_nn_probability(
    mod: MovingObjectsDatabase,
    query_id: object,
    t: float,
    grid_size: int = 256,
    query_is_crisp: bool = False,
) -> List[object]:
    """Ranking by numerically-evaluated NN probability (Eq. 5) at time ``t``."""
    return _by_descending_probability(
        nn_probability_snapshot(mod, query_id, t, grid_size, query_is_crisp)
    )


def nn_probability_snapshot(
    mod: MovingObjectsDatabase,
    query_id: object,
    t: float,
    grid_size: int = 256,
    query_is_crisp: bool = False,
) -> Dict[object, float]:
    """Exclusive NN probability of every candidate at time ``t``."""
    ids, matrix = nn_probability_matrix(mod, query_id, [t], grid_size, query_is_crisp)
    return dict(zip(ids, matrix[0].tolist()))


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
    return _by_descending_probability(
        monte_carlo_nn_probabilities(
            object_ids,
            np.array(centers),
            pdfs,
            np.array((query_position.x, query_position.y)),
            query.pdf,
            samples=samples,
            rng=rng,
        )
    )


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
    by_probability = tuple(_by_descending_probability(snapshot)[:top_k])
    agreement = 0
    for first, second in zip(by_distance, by_probability):
        if first != second:
            break
        agreement += 1
    return RankingComparison(by_distance, by_probability, agreement)
