"""Instantaneous nearest-neighbor probabilities (Eq. 5 and 6 of the paper).

Given a set of uncertain objects at known (expected-location) distances from
a reference point, this module evaluates for each object the probability of
being the nearest neighbor of the reference point:

* the *exclusive* probability ``P^NN_E`` of Eq. (5) — the object is strictly
  nearer than every other object;
* the pairwise *joint* correction of Eq. (6) — ties with one other object —
  which restores (most of) the missing probability mass the paper's
  observation IV points out;
* a Monte-Carlo estimator used by the tests and the ranking ablation.

The evaluation is numeric (trapezoidal integration over the effective ring
``[min R_min, min R_max]``), mirroring the sorted-distance evaluation the
paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .pdf import CrispPDF, RadialPDF
from .within_distance import (
    WithinDistanceProfile,
    integration_bounds,
    prune_candidates,
    within_distance_matrix,
)


@dataclass(frozen=True, slots=True)
class NNProbabilityResult:
    """NN probabilities of one object with respect to a reference point."""

    object_id: object
    exclusive: float
    joint_pairwise: float

    @property
    def total(self) -> float:
        """Exclusive plus pairwise-joint probability (Eq. 6, truncated at pairs)."""
        return self.exclusive + self.joint_pairwise


def nn_probabilities(
    profiles: Sequence[WithinDistanceProfile],
    grid_size: int = 512,
    include_joint: bool = False,
) -> Dict[object, NNProbabilityResult]:
    """Nearest-neighbor probability of every candidate object.

    Args:
        profiles: within-distance profiles of the candidate objects (one per
            object, all relative to the same reference point).
        grid_size: number of quadrature nodes on the effective ring.
        include_joint: also evaluate the pairwise joint term of Eq. (6)
            (quadratically more expensive).

    Returns:
        Mapping from object id to its :class:`NNProbabilityResult`.  Objects
        pruned by the ``R_min``/``R_max`` rule get probability zero.
    """
    results: Dict[object, NNProbabilityResult] = {
        profile.object_id: NNProbabilityResult(profile.object_id, 0.0, 0.0)
        for profile in profiles
    }
    survivors = prune_candidates(profiles)
    if not survivors:
        return results
    if len(survivors) == 1:
        only = survivors[0]
        results[only.object_id] = NNProbabilityResult(only.object_id, 1.0, 0.0)
        return results

    lower, upper = integration_bounds(survivors)
    if upper <= lower:
        # All survivors are effectively at the same crisp distance; split the
        # probability uniformly (measure-zero tie).
        share = 1.0 / len(survivors)
        for profile in survivors:
            results[profile.object_id] = NNProbabilityResult(
                profile.object_id, share, 0.0
            )
        return results

    radii = np.linspace(lower, upper, grid_size)
    densities = np.empty((len(survivors), grid_size))
    for row, profile in enumerate(survivors):
        densities[row] = [profile.density(float(r)) for r in radii]

    complements = np.clip(1.0 - within_distance_matrix(survivors, radii), 0.0, 1.0)

    for row, profile in enumerate(survivors):
        others = np.ones(grid_size)
        for other_row in range(len(survivors)):
            if other_row == row:
                continue
            others = others * complements[other_row]
        exclusive = float(np.trapezoid(densities[row] * others, radii))
        exclusive = min(1.0, max(0.0, exclusive))

        joint = 0.0
        if include_joint:
            for other_row in range(len(survivors)):
                if other_row == row:
                    continue
                rest = np.ones(grid_size)
                for third_row in range(len(survivors)):
                    if third_row in (row, other_row):
                        continue
                    rest = rest * complements[third_row]
                joint += float(
                    np.trapezoid(
                        densities[row] * densities[other_row] * rest, radii
                    )
                )
            joint = max(0.0, joint)

        results[profile.object_id] = NNProbabilityResult(
            profile.object_id, exclusive, joint
        )
    return results


def monte_carlo_nn_probabilities(
    object_ids: Sequence[object],
    centers: np.ndarray,
    pdfs: Sequence[RadialPDF],
    query_center: np.ndarray,
    query_pdf: RadialPDF,
    samples: int = 20_000,
    rng: np.random.Generator | None = None,
) -> Dict[object, float]:
    """Monte-Carlo estimate of each object's NN probability.

    Both the objects *and* the query may be uncertain; every trial draws one
    location per object plus one query location and credits the nearest
    object.  Used to validate Theorem 1 (expected-distance ranking equals NN
    probability ranking) and the convolution shortcut.

    Args:
        object_ids: identifiers, parallel to ``centers``/``pdfs``.
        centers: array of shape ``(n, 2)`` with expected locations.
        pdfs: location pdf of every object.
        query_center: expected location of the query object, shape ``(2,)``.
        query_pdf: location pdf of the query object (``CrispPDF`` when crisp).
        samples: number of Monte-Carlo trials.
        rng: random generator (seeded default for reproducibility).

    Returns:
        Mapping from object id to the fraction of trials it won.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    centers = np.asarray(centers, dtype=float)
    query_center = np.asarray(query_center, dtype=float)
    if centers.shape != (len(object_ids), 2):
        raise ValueError("centers must have shape (len(object_ids), 2)")
    if len(pdfs) != len(object_ids):
        raise ValueError("need exactly one pdf per object")

    if isinstance(query_pdf, CrispPDF):
        query_samples = np.tile(query_center, (samples, 1))
    else:
        query_samples = query_pdf.sample(rng, samples) + query_center

    distances = np.empty((len(object_ids), samples))
    for index, (center, pdf) in enumerate(zip(centers, pdfs)):
        if isinstance(pdf, CrispPDF):
            positions = np.tile(center, (samples, 1))
        else:
            positions = pdf.sample(rng, samples) + center
        deltas = positions - query_samples
        distances[index] = np.hypot(deltas[:, 0], deltas[:, 1])

    winners = np.argmin(distances, axis=0)
    counts = np.bincount(winners, minlength=len(object_ids))
    return {
        object_id: float(count) / samples
        for object_id, count in zip(object_ids, counts)
    }


def probability_mass_deficit(
    results: Dict[object, NNProbabilityResult], use_total: bool = False
) -> float:
    """How far the NN probabilities fall short of summing to one.

    Observation IV of Section 2.2: the exclusive probabilities alone do not
    form a probability space; the deficit is the mass of the joint events.
    """
    if use_total:
        total = sum(result.total for result in results.values())
    else:
        total = sum(result.exclusive for result in results.values())
    return 1.0 - total
