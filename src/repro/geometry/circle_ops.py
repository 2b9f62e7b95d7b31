"""Circle–circle geometry used by the probability layer.

The within-distance probability of Eq. (3)/(4) in the paper integrates a
location pdf over the intersection of two disks (the uncertainty disk of the
object and the query's within-distance disk).  For uniform pdfs the integral
is proportional to the *lens area* of the intersection; this module provides
that area in a numerically careful form.
"""

from __future__ import annotations

import math

from .point import Point2D


def circle_intersection_area(
    center_a: Point2D, radius_a: float, center_b: Point2D, radius_b: float
) -> float:
    """Area of the intersection of two disks.

    Handles the disjoint and fully-contained configurations explicitly and
    clamps the ``acos`` arguments to guard against floating-point drift when
    the circles are tangent.

    Args:
        center_a: center of the first disk.
        radius_a: radius of the first disk (non-negative).
        center_b: center of the second disk.
        radius_b: radius of the second disk (non-negative).

    Returns:
        The lens area, in the same squared units as the inputs.
    """
    if radius_a < 0 or radius_b < 0:
        raise ValueError("radii must be non-negative")
    if radius_a == 0.0 or radius_b == 0.0:
        return 0.0

    distance = center_a.distance_to(center_b)
    if distance >= radius_a + radius_b:
        return 0.0
    if distance <= abs(radius_a - radius_b):
        smaller = min(radius_a, radius_b)
        return math.pi * smaller * smaller

    # Standard two-circular-segment decomposition of the lens.
    d2 = distance * distance
    ra2 = radius_a * radius_a
    rb2 = radius_b * radius_b
    cos_alpha = (d2 + ra2 - rb2) / (2.0 * distance * radius_a)
    cos_beta = (d2 + rb2 - ra2) / (2.0 * distance * radius_b)
    alpha = math.acos(min(1.0, max(-1.0, cos_alpha)))
    beta = math.acos(min(1.0, max(-1.0, cos_beta)))
    area_a = ra2 * (alpha - math.sin(2.0 * alpha) / 2.0)
    area_b = rb2 * (beta - math.sin(2.0 * beta) / 2.0)
    return area_a + area_b
