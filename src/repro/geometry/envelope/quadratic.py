"""The piece quadratic ``q(t) = a t² + b t + c`` (Section 3.2).

Every piece of a distance function is ``d(t) = sqrt(q(t))``, with ``q`` the
squared distance of a relative motion.  This module is the one place that
knows how ``q`` is represented — three coefficients in *absolute* time — and
how it is built, evaluated, bounded and solved.  Every function keeps the
float expressions the scalar oracles and the vectorised kernels have always
used, and works on floats and on NumPy arrays alike, so the kernels and
their references share one definition and stay bit-identical.

Rules that look alike but differ on purpose:

* **Degenerate leading coefficient.**  A crossing of two pieces counts as
  linear where ``|Δa| < COEFF_EPSILON`` (:func:`is_linear`): dividing by a
  smaller ``2 Δa`` would put roots far outside any window.  The band's
  sample grid adds a vertex only where ``|a| > COEFF_EPSILON``
  (:func:`interior_vertex`), so at ``|a| == COEFF_EPSILON`` it samples no
  vertex while the solve still divides.  :func:`extrema` takes the vertex
  for *any* ``a != 0``: a bound must hold for the values as evaluated, so
  no epsilon may drop a real extremum.
* **Clamping a squared value.**  :func:`clamped` (the scalar ``Hyperbola``
  and ``FunctionPack.values_at``) reads a NaN as 0; :func:`floored` (the
  band pass and the closed-form bounds) keeps it NaN.  The two agree on
  every number.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ...core.tolerances import COEFF_EPSILON, TIME_TOLERANCE


def from_relative_motion(rel_x, rel_y, rel_vx, rel_vy, t_ref):
    """``(a, b, c)`` of the squared distance from the origin of a point at
    ``(rel_x, rel_y)`` at time ``t_ref`` moving with velocity
    ``(rel_vx, rel_vy)``, as a quadratic in absolute time (the ``TR_iq``
    construction of Section 3.2)."""
    a = rel_vx * rel_vx + rel_vy * rel_vy
    b_local = 2.0 * (rel_x * rel_vx + rel_y * rel_vy)
    c_local = rel_x * rel_x + rel_y * rel_y
    return a, b_local - 2.0 * a * t_ref, c_local - b_local * t_ref + a * t_ref * t_ref


def value(a, b, c, t):
    """``q(t)`` in Horner form."""
    return (a * t + b) * t + c


def magnitude(a, b, c, t):
    """The scale of the rounding error of ``value(a, b, c, t)``: the sum of
    its terms' sizes, which dwarfs the value itself where they cancel."""
    t = np.abs(t)
    return (np.abs(a) * t + np.abs(b)) * t + np.abs(c)


def clamped(q):
    """``q`` where it is positive, else 0 (a NaN reads 0)."""
    if isinstance(q, np.ndarray):
        return np.where(q > 0.0, q, 0.0)
    return q if q > 0.0 else 0.0


def floored(q):
    """``max(q, 0)`` elementwise (a NaN stays NaN)."""
    return np.maximum(q, 0.0)


def distance(a, b, c, t):
    """``sqrt(max(q(t), 0))``, the band pass's distance."""
    return np.sqrt(floored(value(a, b, c, t)))


def is_linear(a):
    """Whether a crossing with leading coefficient ``a`` is solved as linear."""
    return abs(a) < COEFF_EPSILON


def vertex(a, b):
    """Time of the parabola's extremum, ``-b / 2a``, unguarded: callers on
    arrays where ``a`` may be 0 suppress the division warnings."""
    return -b / (2.0 * a)


def interior_vertex(a, b, lo, hi):
    """The vertex where the parabola bends (``|a| > COEFF_EPSILON``) and it
    lies strictly inside ``(lo, hi)``, else ``lo``: the band grid's sample."""
    with np.errstate(divide="ignore", invalid="ignore"):
        at = np.where(abs(a) > COEFF_EPSILON, vertex(a, b), lo)
    return np.where((at > lo) & (at < hi), at, lo)


def extrema(a, b, c, lo, hi):
    """Smallest and largest ``q`` over ``[lo, hi]`` in closed form (the ends,
    and the vertex strictly inside); ``(inf, -inf)`` where ``lo > hi``."""
    ends = [value(a, b, c, t) for t in (lo, hi)]
    with np.errstate(divide="ignore", invalid="ignore"):
        at = vertex(a, b)
        middle = np.where((lo < at) & (at < hi), value(a, b, c, at), ends[0])
    empty = lo > hi
    return (
        np.where(empty, np.inf, np.minimum(np.minimum(*ends), middle)),
        np.where(empty, -np.inf, np.maximum(np.maximum(*ends), middle)),
    )


def discriminant(da, db, dc):
    """``db² - 4 da dc``."""
    return db * db - 4.0 * da * dc


def roots(da, db, dc):
    """The crossing roots of many pairs at once, the floats of
    :func:`crossing_roots` pair by pair.

    Returns:
        ``(times, disc, linear, sloped)``: both roots of each pair as a
        ``(2, n)`` array, smaller first and NaN where there is none; the
        discriminants; the pairs solved as linear (:func:`is_linear`), and
        of those the ones with a root, ``-dc / db`` in row 0.
    """
    linear = is_linear(da)
    sloped = linear & (np.abs(db) >= COEFF_EPSILON)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        disc = discriminant(da, db, dc)
        solvable = ~linear & (disc >= 0.0)
        sqrt_disc = np.sqrt(np.where(solvable, disc, 0.0))
        r_minus, r_plus = (-db - sqrt_disc) / (2.0 * da), (-db + sqrt_disc) / (2.0 * da)
        times = np.stack([np.minimum(r_minus, r_plus), np.maximum(r_minus, r_plus)])
        times[:, ~solvable] = np.nan
        times[0, sloped] = -dc[sloped] / db[sloped]
    return times, disc, linear, sloped


def crossing_roots(da: float, db: float, dc: float) -> List[float]:
    """The real roots of one ``da t² + db t + dc = 0``, ascending: none for
    a constant difference, one for a linear one, else none or two."""
    if is_linear(da):
        if abs(db) < COEFF_EPSILON:
            return []
        return [-dc / db]
    disc = discriminant(da, db, dc)
    if disc < 0.0:
        return []
    sqrt_disc = math.sqrt(disc)
    return sorted([(-db - sqrt_disc) / (2.0 * da), (-db + sqrt_disc) / (2.0 * da)])


def crossing_times(first, second, t_lo: float, t_hi: float) -> List[float]:
    """Times in ``(t_lo, t_hi)`` at which two pieces' curves cross.

    Equal distances are equal squared distances, a quadratic equation, so
    two curves cross at most twice (the Davenport–Schinzel argument of
    Section 3.2).  Roots within ``TIME_TOLERANCE`` of an end are dropped
    (the ends are already critical times of a sweep), and a root within it
    of the last one kept is a duplicate.  ``first`` and ``second`` carry the
    coefficients as ``.a``, ``.b``, ``.c``.
    """
    inside: List[float] = []
    for root in crossing_roots(first.a - second.a, first.b - second.b, first.c - second.c):
        if t_lo + TIME_TOLERANCE < root < t_hi - TIME_TOLERANCE:
            if not inside or abs(root - inside[-1]) > TIME_TOLERANCE:
                inside.append(root)
    return inside
