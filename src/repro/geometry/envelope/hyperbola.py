"""Hyperbolic distance functions ``d(t) = sqrt(A t² + B t + C)``.

Section 3.2 of the paper shows that, for single-segment motion, the distance
between the expected locations of two uncertain trajectories is the square
root of a quadratic in time — a branch of a hyperbola.  All continuous query
processing reduces to manipulating arrangements of such curves, so this
module provides:

* :class:`Hyperbola` — the curve itself with evaluation, minimum, and
  pairwise intersection;
* :class:`DistanceFunction` — a *piecewise* hyperbola attached to an object
  id, covering trajectories that consist of several segments inside the query
  window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ...core.tolerances import COEFF_EPSILON as _EPSILON


@dataclass(frozen=True, slots=True)
class Hyperbola:
    """The curve ``d(t) = sqrt(a t² + b t + c)``.

    The quadratic under the root is the squared distance between two points
    moving with constant velocities, so it is always non-negative on the time
    window where it is used; tiny negative excursions caused by floating
    point noise are clamped to zero.
    """

    a: float
    b: float
    c: float

    def value_squared(self, t: float) -> float:
        """Squared distance at time ``t`` (clamped at zero)."""
        value = (self.a * t + self.b) * t + self.c
        return value if value > 0.0 else 0.0

    def value(self, t: float) -> float:
        """Distance at time ``t``."""
        return math.sqrt(self.value_squared(t))

    @property
    def vertex_time(self) -> Optional[float]:
        """Time at which the underlying parabola attains its minimum.

        ``None`` for a degenerate (constant-relative-velocity-zero) curve,
        whose distance is constant in time.
        """
        if abs(self.a) < _EPSILON:
            return None
        return -self.b / (2.0 * self.a)

    def minimum_on(self, t_lo: float, t_hi: float) -> Tuple[float, float]:
        """Minimum value and its time over ``[t_lo, t_hi]``.

        Returns:
            ``(t_min, d_min)``.
        """
        if t_hi < t_lo:
            raise ValueError(f"empty interval [{t_lo}, {t_hi}]")
        candidates = [t_lo, t_hi]
        vertex = self.vertex_time
        if vertex is not None and t_lo < vertex < t_hi:
            candidates.append(vertex)
        best_t = min(candidates, key=self.value_squared)
        return best_t, self.value(best_t)

    def maximum_on(self, t_lo: float, t_hi: float) -> Tuple[float, float]:
        """Maximum value and its time over ``[t_lo, t_hi]``.

        Because the quadratic opens upward (``a >= 0`` for genuine distance
        functions) the maximum is attained at an endpoint; for robustness the
        vertex is also considered when ``a < 0``.
        """
        if t_hi < t_lo:
            raise ValueError(f"empty interval [{t_lo}, {t_hi}]")
        candidates = [t_lo, t_hi]
        vertex = self.vertex_time
        if vertex is not None and t_lo < vertex < t_hi:
            candidates.append(vertex)
        best_t = max(candidates, key=self.value_squared)
        return best_t, self.value(best_t)

    def intersection_times(
        self, other: "Hyperbola", t_lo: float, t_hi: float, tolerance: float = 1e-9
    ) -> List[float]:
        """Times in ``(t_lo, t_hi)`` at which the two curves cross.

        Since both curves are square roots of quadratics, equality of the
        distances is equivalent to equality of the squared distances, i.e. a
        quadratic equation — two hyperbolic distance functions intersect in
        at most two points (the Davenport–Schinzel argument of Section 3.2).

        Interval endpoints are excluded (they are already critical points of
        the sweep); duplicate roots are collapsed.
        """
        da = self.a - other.a
        db = self.b - other.b
        dc = self.c - other.c
        roots: List[float] = []
        if abs(da) < _EPSILON:
            if abs(db) < _EPSILON:
                return []
            roots = [-dc / db]
        else:
            discriminant = db * db - 4.0 * da * dc
            if discriminant < 0.0:
                return []
            sqrt_disc = math.sqrt(discriminant)
            roots = [(-db - sqrt_disc) / (2.0 * da), (-db + sqrt_disc) / (2.0 * da)]

        inside: List[float] = []
        for root in sorted(roots):
            if t_lo + tolerance < root < t_hi - tolerance:
                if not inside or abs(root - inside[-1]) > tolerance:
                    inside.append(root)
        return inside

    @staticmethod
    def from_relative_motion(
        rel_x: float,
        rel_y: float,
        rel_vx: float,
        rel_vy: float,
        t_ref: float,
    ) -> "Hyperbola":
        """Build the distance-to-origin hyperbola of a relative motion.

        The relative (difference) object is at ``(rel_x, rel_y)`` at time
        ``t_ref`` and moves with constant velocity ``(rel_vx, rel_vy)``; the
        returned curve gives its distance from the origin as a function of
        *absolute* time, matching the ``TR_iq`` construction of Section 3.2.
        """
        a = rel_vx * rel_vx + rel_vy * rel_vy
        b_local = 2.0 * (rel_x * rel_vx + rel_y * rel_vy)
        c_local = rel_x * rel_x + rel_y * rel_y
        b = b_local - 2.0 * a * t_ref
        c = c_local - b_local * t_ref + a * t_ref * t_ref
        return Hyperbola(a, b, c)


@dataclass(frozen=True, slots=True)
class HyperbolaPiece:
    """One hyperbola valid over the closed time interval ``[t_start, t_end]``."""

    t_start: float
    t_end: float
    curve: Hyperbola

    def __post_init__(self) -> None:
        if self.t_end < self.t_start:
            raise ValueError(
                f"piece end time {self.t_end} precedes start time {self.t_start}"
            )

    def contains(self, t: float, tolerance: float = 1e-9) -> bool:
        """True when ``t`` falls inside the piece's interval."""
        return self.t_start - tolerance <= t <= self.t_end + tolerance


class DistanceFunction:
    """A piecewise-hyperbolic distance function attached to an object id.

    For a trajectory that consists of ``m`` segments inside the query window,
    the distance to the query trajectory is a sequence of ``m`` (or fewer)
    hyperbola pieces.  The envelope algorithms only need three operations:
    evaluation, piecewise minimum, and pairwise intersection times — all of
    which reduce to the single-piece primitives above.
    """

    __slots__ = ("object_id", "pieces", "t_start", "t_end")

    def __init__(self, object_id: object, pieces: Sequence[HyperbolaPiece]):
        if not pieces:
            raise ValueError("a distance function needs at least one piece")
        ordered = sorted(pieces, key=lambda piece: piece.t_start)
        for previous, current in zip(ordered, ordered[1:]):
            if current.t_start < previous.t_end - 1e-9:
                raise ValueError("distance function pieces overlap in time")
        self.object_id = object_id
        self.pieces: Tuple[HyperbolaPiece, ...] = tuple(ordered)
        self.t_start = ordered[0].t_start
        self.t_end = ordered[-1].t_end

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"DistanceFunction(id={self.object_id!r}, pieces={len(self.pieces)}, "
            f"span=[{self.t_start:.3f}, {self.t_end:.3f}])"
        )

    def piece_at(self, t: float) -> HyperbolaPiece:
        """The piece covering time ``t``.

        Raises:
            ValueError: if ``t`` lies outside the function's span.
        """
        if t < self.t_start - 1e-9 or t > self.t_end + 1e-9:
            raise ValueError(
                f"time {t} outside distance function span "
                f"[{self.t_start}, {self.t_end}]"
            )
        # Binary search over the (small) ordered piece list.
        lo, hi = 0, len(self.pieces) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.pieces[mid].t_end < t:
                lo = mid + 1
            else:
                hi = mid
        return self.pieces[lo]

    def value(self, t: float) -> float:
        """Distance at time ``t``."""
        return self.piece_at(t).curve.value(t)

    def value_squared(self, t: float) -> float:
        """Squared distance at time ``t``."""
        return self.piece_at(t).curve.value_squared(t)

    def minimum_on(self, t_lo: float, t_hi: float) -> Tuple[float, float]:
        """Minimum value and its time over ``[t_lo, t_hi]`` across all pieces."""
        if t_hi < t_lo:
            raise ValueError(f"empty interval [{t_lo}, {t_hi}]")
        best: Optional[Tuple[float, float]] = None
        for piece in self.pieces:
            lo = max(t_lo, piece.t_start)
            hi = min(t_hi, piece.t_end)
            if hi < lo:
                continue
            t_min, d_min = piece.curve.minimum_on(lo, hi)
            if best is None or d_min < best[1]:
                best = (t_min, d_min)
        if best is None:
            raise ValueError(
                f"interval [{t_lo}, {t_hi}] does not overlap the distance function"
            )
        return best

    def maximum_on(self, t_lo: float, t_hi: float) -> Tuple[float, float]:
        """Maximum value and its time over ``[t_lo, t_hi]`` across all pieces."""
        if t_hi < t_lo:
            raise ValueError(f"empty interval [{t_lo}, {t_hi}]")
        best: Optional[Tuple[float, float]] = None
        for piece in self.pieces:
            lo = max(t_lo, piece.t_start)
            hi = min(t_hi, piece.t_end)
            if hi < lo:
                continue
            t_max, d_max = piece.curve.maximum_on(lo, hi)
            if best is None or d_max > best[1]:
                best = (t_max, d_max)
        if best is None:
            raise ValueError(
                f"interval [{t_lo}, {t_hi}] does not overlap the distance function"
            )
        return best

    def intersection_times(
        self, other: "DistanceFunction", t_lo: float, t_hi: float
    ) -> List[float]:
        """Times in ``(t_lo, t_hi)`` at which this function crosses ``other``.

        Computed piecewise: for each pair of overlapping pieces the underlying
        quadratic comparison yields at most two crossings.  Piece boundaries
        themselves are *also* reported as candidate critical times by the
        envelope algorithms (via :meth:`breakpoints`), so they are not
        duplicated here.
        """
        crossings: List[float] = []
        for piece in self.pieces:
            for other_piece in other.pieces:
                lo = max(t_lo, piece.t_start, other_piece.t_start)
                hi = min(t_hi, piece.t_end, other_piece.t_end)
                if hi <= lo:
                    continue
                crossings.extend(
                    piece.curve.intersection_times(other_piece.curve, lo, hi)
                )
        crossings.sort()
        deduplicated: List[float] = []
        for t in crossings:
            if not deduplicated or abs(t - deduplicated[-1]) > 1e-9:
                deduplicated.append(t)
        return deduplicated

    def breakpoints(self, t_lo: float, t_hi: float) -> List[float]:
        """Interior piece boundaries of this function within ``(t_lo, t_hi)``."""
        points = []
        for piece in self.pieces[1:]:
            if t_lo < piece.t_start < t_hi:
                points.append(piece.t_start)
        return points

    @staticmethod
    def single_segment(
        object_id: object,
        rel_x: float,
        rel_y: float,
        rel_vx: float,
        rel_vy: float,
        t_start: float,
        t_end: float,
    ) -> "DistanceFunction":
        """Convenience constructor for a one-piece distance function."""
        curve = Hyperbola.from_relative_motion(rel_x, rel_y, rel_vx, rel_vy, t_start)
        return DistanceFunction(
            object_id, [HyperbolaPiece(t_start, t_end, curve)]
        )
