"""Radial convolution of location pdfs (Section 3.1).

The key transformation of the paper: the relative location of an uncertain
object with respect to an uncertain query object is a random variable whose
pdf is the convolution of the two location pdfs (Eq. 6 of Section 3.1).  For
rotationally-symmetric inputs the result is again rotationally symmetric
(Property 2), so the convolution can be computed as a one-dimensional
profile.

Two entry points are provided:

* :func:`convolve_radial_pdfs` — exact numeric convolution, returning a
  :class:`~repro.uncertainty.pdf.TabulatedRadialPDF`;
* :func:`difference_pdf` — the pdf of ``V_i − V_q`` for the common model
  combinations, using closed forms where available (crisp query → the
  object's own pdf; two equal uniform disks → the exact lens-area profile).
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry.circle_ops import circle_intersection_area
from ..geometry.point import ORIGIN, Point2D
from .pdf import CrispPDF, RadialPDF, TabulatedRadialPDF
from .uniform import UniformDiskPDF


def convolve_radial_pdfs(
    first: RadialPDF,
    second: RadialPDF,
    samples: int = 256,
    angular_samples: int = 256,
) -> RadialPDF:
    """Exact (numeric) convolution of two rotationally-symmetric pdfs.

    The convolution of two radial profiles evaluated at radius ``s`` is

    ``f(s) = ∫ρ f₁(ρ) ∫θ f₂(√(s² + ρ² − 2sρcosθ)) dθ dρ``

    which is computed on a polar grid.  The result is tabulated and
    renormalized; rotational symmetry is preserved by construction
    (Property 2 of the paper).

    Args:
        first: one location pdf.
        second: the other location pdf (use the pdf of ``−V_q``, which for a
            rotationally-symmetric pdf equals the pdf of ``V_q`` itself).
        samples: number of radial samples of the output profile.
        angular_samples: number of angular quadrature points.

    Returns:
        The convolved pdf.  Degenerate (crisp) inputs short-circuit to the
        other operand.
    """
    if isinstance(first, CrispPDF):
        return second
    if isinstance(second, CrispPDF):
        return first
    if samples < 8 or angular_samples < 8:
        raise ValueError("need at least 8 radial and angular samples")

    support = first.support_radius + second.support_radius
    output_radii = np.linspace(0.0, support, samples)
    inner_radii = np.linspace(0.0, first.support_radius, samples)
    angles = np.linspace(0.0, 2.0 * math.pi, angular_samples, endpoint=False)

    inner_density = first.densities(inner_radii)
    cos_angles = np.cos(angles)

    profile = np.zeros_like(output_radii)
    for index, s in enumerate(output_radii):
        # Distance from the output point to each inner-grid point.
        distances = np.sqrt(
            np.maximum(
                0.0,
                s * s
                + inner_radii[:, None] ** 2
                - 2.0 * s * inner_radii[:, None] * cos_angles[None, :],
            )
        )
        second_values = second.densities(distances.ravel()).reshape(distances.shape)
        angular_integral = second_values.mean(axis=1) * 2.0 * math.pi
        integrand = inner_density * inner_radii * angular_integral
        profile[index] = np.trapezoid(integrand, inner_radii)

    return TabulatedRadialPDF(output_radii, profile)


def uniform_difference_pdf(radius: float, samples: int = 512) -> RadialPDF:
    """Exact pdf of the difference of two radius-``r`` uniform-disk locations.

    The convolution of two uniform disks evaluated at offset ``s`` is the
    lens area of two radius-``r`` circles whose centers are ``s`` apart,
    divided by ``(πr²)²``.  Tabulated on ``samples`` radii up to ``2r``.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    radii = np.linspace(0.0, 2.0 * radius, samples)
    normalizer = (math.pi * radius * radius) ** 2
    densities = np.array(
        [
            circle_intersection_area(ORIGIN, radius, Point2D(float(s), 0.0), radius)
            / normalizer
            for s in radii
        ]
    )
    return TabulatedRadialPDF(radii, densities)


def difference_pdf(
    object_pdf: RadialPDF, query_pdf: RadialPDF, samples: int = 256
) -> RadialPDF:
    """Pdf of the relative location ``V_i − V_q``.

    Uses closed forms where available and the generic numeric convolution
    otherwise.  Because every pdf in the library is rotationally symmetric,
    the pdf of ``−V_q`` equals the pdf of ``V_q``.
    """
    if isinstance(query_pdf, CrispPDF):
        return object_pdf
    if isinstance(object_pdf, CrispPDF):
        return query_pdf
    if (
        isinstance(object_pdf, UniformDiskPDF)
        and isinstance(query_pdf, UniformDiskPDF)
        and abs(object_pdf.radius - query_pdf.radius) < 1e-12
    ):
        return uniform_difference_pdf(object_pdf.radius, samples=max(samples, 256))
    return convolve_radial_pdfs(object_pdf, query_pdf, samples=samples)

