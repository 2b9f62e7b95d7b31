"""Rotationally-symmetric location pdfs.

The uncertainty model of the paper attaches, to every trajectory, a pdf of
the object's location inside its uncertainty disk (Section 2.1).  All of the
paper's results require only *rotational symmetry* of that pdf (Properties
1–2, Theorem 1), so the abstraction here is a radial profile ``f(ρ)``:
the planar density at a point depends only on its distance ``ρ`` from the
expected location.

Every concrete pdf implements:

* ``density(rho)``       — the radial profile (planar density value);
* ``radial_cdf(rho)``    — probability of being within ``rho`` of the center;
* ``within_distance_probability(d, Rd)`` — probability of being within
  ``Rd`` of a point at distance ``d`` from the center (the ``P^WD`` building
  block of Eq. 3/4);
* ``sample(rng, n)``     — draw locations for Monte-Carlo validation.

Numerical defaults are provided for everything except ``density`` and
``support_radius``; analytic subclasses override where closed forms exist.
"""

from __future__ import annotations

import abc
import math
from typing import Optional

import numpy as np


class RadialPDF(abc.ABC):
    """A rotationally-symmetric planar probability density."""

    @property
    @abc.abstractmethod
    def support_radius(self) -> float:
        """Radius beyond which the density is identically zero."""

    @abc.abstractmethod
    def density(self, rho: float) -> float:
        """Planar density value at distance ``rho`` from the center."""

    def densities(self, radii: np.ndarray) -> np.ndarray:
        """:meth:`density` at every radius of ``radii``.

        One scalar call per radius: a closed form evaluated by ``math`` may
        differ from its NumPy form in the last ulp.
        """
        return np.array([self.density(float(s)) for s in radii])

    # ------------------------------------------------------------------
    # Derived quantities with numeric defaults.
    # ------------------------------------------------------------------

    def radial_cdf(self, rho: float) -> float:
        """Probability that the location is within ``rho`` of the center.

        Default implementation integrates ``f(s)·2πs`` numerically.
        """
        if rho <= 0.0:
            return 0.0
        upper = min(rho, self.support_radius)
        if upper <= 0.0:
            return 0.0
        radii = np.linspace(0.0, upper, 513)
        values = self.densities(radii) * 2.0 * math.pi * radii
        return float(min(1.0, np.trapezoid(values, radii)))

    def within_distance_probability(self, d: float, Rd: float) -> float:
        """Probability of being within ``Rd`` of a point at distance ``d``.

        This is the paper's ``P^WD`` for a crisp reference point: the mass of
        the pdf inside the disk of radius ``Rd`` centered ``d`` away from the
        pdf's own center.  The default implementation integrates the radial
        profile against the angular coverage of each circle of radius ``ρ``.
        """
        if Rd < 0.0:
            raise ValueError("within-distance radius must be non-negative")
        support = self.support_radius
        if Rd >= d + support:
            return 1.0
        if Rd <= d - support and d > support:
            return 0.0
        if d == 0.0:
            return self.radial_cdf(Rd)

        radii = np.linspace(0.0, support, 1025)
        coverage = _angular_coverage(radii, d, Rd)
        integrand = self.densities(radii) * radii * coverage
        return float(min(1.0, max(0.0, np.trapezoid(integrand, radii))))

    def within_distance_density(self, d: float, Rd: float, step: Optional[float] = None) -> float:
        """Derivative of :meth:`within_distance_probability` with respect to ``Rd``.

        The paper's ``pdf^WD``; the default is a central finite difference.
        """
        if step is None:
            step = max(1e-6, 1e-4 * max(self.support_radius, 1.0))
        upper = self.within_distance_probability(d, Rd + step)
        lower = self.within_distance_probability(d, max(0.0, Rd - step))
        width = (Rd + step) - max(0.0, Rd - step)
        if width <= 0.0:
            return 0.0
        return max(0.0, (upper - lower) / width)

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Draw ``n`` locations (relative to the center) from the pdf.

        Default implementation uses inverse-transform sampling of the radial
        cdf on a fine grid plus a uniform angle — adequate for validation
        purposes.
        """
        if n < 0:
            raise ValueError("sample count must be non-negative")
        support = self.support_radius
        if support == 0.0:
            return np.zeros((n, 2))
        radii = np.linspace(0.0, support, 2049)
        cdf = np.array([self.radial_cdf(float(r)) for r in radii])
        cdf[-1] = 1.0
        cdf = np.maximum.accumulate(cdf)
        uniforms = rng.random(n)
        sampled_radii = np.interp(uniforms, cdf, radii)
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
        return np.column_stack(
            (sampled_radii * np.cos(angles), sampled_radii * np.sin(angles))
        )

    def total_mass(self) -> float:
        """Numeric check that the pdf integrates to one (used by tests)."""
        radii = np.linspace(0.0, self.support_radius, 4097)
        values = self.densities(radii) * 2.0 * math.pi * radii
        return float(np.trapezoid(values, radii))

    def is_rotationally_symmetric(self) -> bool:
        """All pdfs in this hierarchy are rotationally symmetric by construction."""
        return True


def _angular_coverage(radii: np.ndarray, d: float, Rd: float) -> np.ndarray:
    """Angle (in radians) of each circle of radius ``ρ`` lying within ``Rd`` of a point.

    The reference point sits at distance ``d`` from the circles' common
    center.  A circle of radius ``ρ`` is fully inside the within-distance
    disk when ``ρ + d <= Rd``, fully outside when ``|ρ − d| >= Rd``, and
    otherwise the covered arc subtends ``2·arccos((ρ² + d² − Rd²)/(2ρd))``.
    """
    coverage = np.zeros_like(radii)
    full = radii + d <= Rd
    coverage[full] = 2.0 * math.pi
    partial = ~full & (np.abs(radii - d) < Rd) & (radii > 0.0)
    if np.any(partial):
        rho = radii[partial]
        cosine = (rho * rho + d * d - Rd * Rd) / (2.0 * rho * d)
        cosine = np.clip(cosine, -1.0, 1.0)
        coverage[partial] = 2.0 * np.arccos(cosine)
    # ρ == 0 contributes only when the center itself is within Rd.
    zero = radii <= 0.0
    if np.any(zero):
        coverage[zero] = 2.0 * math.pi if d <= Rd else 0.0
    return coverage


class CrispPDF(RadialPDF):
    """A degenerate pdf: the location is known exactly (zero uncertainty).

    Used for crisp querying objects (Section 2.2) and as the identity element
    of the convolution transformation.
    """

    @property
    def support_radius(self) -> float:
        return 0.0

    def density(self, rho: float) -> float:
        raise ValueError(
            "the crisp pdf is a Dirac mass and has no finite planar density"
        )

    def radial_cdf(self, rho: float) -> float:
        return 1.0 if rho >= 0.0 else 0.0

    def within_distance_probability(self, d: float, Rd: float) -> float:
        if Rd < 0.0:
            raise ValueError("within-distance radius must be non-negative")
        return 1.0 if d <= Rd else 0.0

    def within_distance_density(self, d: float, Rd: float, step: Optional[float] = None) -> float:
        # The derivative is a Dirac impulse at Rd == d; callers that need the
        # density (Eq. 5) must special-case crisp objects, which the
        # nn_probability module does.
        return 0.0

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return np.zeros((n, 2))

    def total_mass(self) -> float:
        return 1.0


class TabulatedRadialPDF(RadialPDF):
    """A radial pdf defined by sampled values of its profile.

    Produced by the numeric convolution routine; linear interpolation is used
    between samples and the profile is renormalized so the planar integral is
    exactly one.
    """

    def __init__(self, radii: np.ndarray, densities: np.ndarray):
        radii = np.asarray(radii, dtype=float)
        densities = np.asarray(densities, dtype=float)
        if radii.ndim != 1 or densities.ndim != 1 or radii.shape != densities.shape:
            raise ValueError("radii and densities must be 1-D arrays of equal length")
        if radii.size < 2:
            raise ValueError("need at least two samples to tabulate a pdf")
        if np.any(np.diff(radii) <= 0.0):
            raise ValueError("radii must be strictly increasing")
        if np.any(densities < -1e-12):
            raise ValueError("densities must be non-negative")
        densities = np.maximum(densities, 0.0)
        mass = np.trapezoid(densities * 2.0 * math.pi * radii, radii)
        if mass <= 0.0:
            raise ValueError("tabulated pdf has zero mass")
        self._radii = radii
        self._densities = densities / mass

    @property
    def support_radius(self) -> float:
        return float(self._radii[-1])

    def density(self, rho: float) -> float:
        if rho < 0.0:
            raise ValueError("radial distance must be non-negative")
        if rho > self.support_radius:
            return 0.0
        return float(np.interp(rho, self._radii, self._densities))

    def densities(self, radii: np.ndarray) -> np.ndarray:
        """One ``np.interp`` over ``radii``: the floats of :meth:`density`."""
        radii = np.asarray(radii, dtype=float)
        if np.any(radii < 0.0):
            raise ValueError("radial distance must be non-negative")
        values = np.interp(radii, self._radii, self._densities)
        return np.where(radii > self.support_radius, 0.0, values)

    @property
    def grid(self) -> np.ndarray:
        """The radii at which the profile is tabulated (read-only copy)."""
        return self._radii.copy()
