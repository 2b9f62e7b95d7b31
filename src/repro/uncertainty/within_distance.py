"""Within-distance probabilities ``P^WD`` and their densities (Eq. 3/4).

Given a reference point (the — possibly transformed — query location) and an
uncertain object whose location pdf is centered ``d`` away, ``P^WD(R_d)`` is
the probability that the object lies within distance ``R_d`` of the
reference point.  These are the building blocks of the instantaneous NN
probabilities of Eq. (5)/(6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pdf import RadialPDF


@dataclass(frozen=True, slots=True)
class WithinDistanceProfile:
    """The within-distance behaviour of one uncertain object.

    Attributes:
        object_id: identifier of the object.
        distance: distance ``d`` between the reference point and the pdf center.
        pdf: the object's (possibly convolved) location pdf.
    """

    object_id: object
    distance: float
    pdf: RadialPDF

    @property
    def r_min(self) -> float:
        """Closest possible distance of the object to the reference point."""
        return max(0.0, self.distance - self.pdf.support_radius)

    @property
    def r_max(self) -> float:
        """Farthest possible distance of the object to the reference point."""
        return self.distance + self.pdf.support_radius

    def probability(self, within: float) -> float:
        """``P^WD`` — probability of being within ``within`` of the reference point."""
        return self.pdf.within_distance_probability(self.distance, within)

    def density(self, within: float) -> float:
        """``pdf^WD`` — derivative of :meth:`probability` with respect to ``within``."""
        return self.pdf.within_distance_density(self.distance, within)


def prune_candidates(
    profiles: Sequence[WithinDistanceProfile],
) -> list[WithinDistanceProfile]:
    """Prune objects with zero NN probability (observation I of Section 2.2).

    Any object whose closest possible distance ``R_min`` exceeds the smallest
    ``R_max`` over all objects can never be the nearest neighbor.

    Returns:
        The surviving profiles, sorted by ``R_min`` (the order in which the
        integral of Eq. (5) is typically evaluated).
    """
    if not profiles:
        return []
    global_r_max = min(profile.r_max for profile in profiles)
    survivors = [
        profile for profile in profiles if profile.r_min <= global_r_max + 1e-12
    ]
    survivors.sort(key=lambda profile: profile.r_min)
    return survivors


def integration_bounds(
    profiles: Sequence[WithinDistanceProfile],
) -> tuple[float, float]:
    """Effective integration bounds for Eq. (5).

    The integrand is zero below the smallest ``R_min`` and the NN must lie
    within the smallest ``R_max`` (the ring of Section 2.2), so the bounds
    are ``[min R_min, min R_max]``.
    """
    if not profiles:
        raise ValueError("cannot compute integration bounds of an empty set")
    lower = min(profile.r_min for profile in profiles)
    upper = min(profile.r_max for profile in profiles)
    return lower, max(lower, upper)


def within_distance_matrix(
    profiles: Sequence[WithinDistanceProfile], radii: np.ndarray
) -> np.ndarray:
    """Evaluate ``P^WD`` for every profile on a grid of radii.

    Returns:
        An array of shape ``(len(profiles), len(radii))``.
    """
    radii = np.asarray(radii, dtype=float)
    matrix = np.empty((len(profiles), radii.size))
    for row, profile in enumerate(profiles):
        matrix[row] = [profile.probability(float(r)) for r in radii]
    return matrix


def within_distance_probability_uncertain_pair(
    object_pdf: RadialPDF,
    query_pdf: RadialPDF,
    center_distance: float,
    within: float,
    monte_carlo_samples: int = 0,
    rng: np.random.Generator | None = None,
) -> float:
    """Probability that two *uncertain* objects are within ``within`` of each other.

    This is the quantity that Section 3.1 shows is expensive to compute
    directly (a quadruple integral) but collapses to a single ``P^WD`` of the
    convolved pdf.  When ``monte_carlo_samples`` is positive the function
    instead estimates the probability by sampling both pdfs — used by the
    tests to validate the convolution shortcut.
    """
    if monte_carlo_samples > 0:
        if rng is None:
            rng = np.random.default_rng(0)
        object_samples = object_pdf.sample(rng, monte_carlo_samples)
        query_samples = query_pdf.sample(rng, monte_carlo_samples)
        object_samples = object_samples + np.array([center_distance, 0.0])
        deltas = object_samples - query_samples
        distances = np.hypot(deltas[:, 0], deltas[:, 1])
        return float(np.mean(distances <= within))

    from .convolution import difference_pdf  # local import to avoid a cycle

    relative = difference_pdf(object_pdf, query_pdf)
    return relative.within_distance_probability(center_distance, within)


def effective_pruning_radius(pdf: RadialPDF, query_pdf: RadialPDF) -> float:
    """Width of the pruning band induced by a pair of pdfs.

    For the paper's equal-radius uniform model this is ``4r``: the convolved
    pdf has support ``2r`` and the band of Section 3.2 is twice that.  In
    general it is twice the support radius of the convolution, i.e. twice the
    sum of the two support radii.
    """
    return 2.0 * (pdf.support_radius + query_pdf.support_radius)
