"""Hyperbolic distance functions ``d(t) = sqrt(A t² + B t + C)``.

Section 3.2 of the paper shows that, for single-segment motion, the distance
between the expected locations of two uncertain trajectories is the square
root of a quadratic in time — a branch of a hyperbola.  All continuous query
processing reduces to manipulating arrangements of such curves, so this
module provides:

* :class:`Hyperbola` — the curve itself, evaluated through
  :mod:`~repro.geometry.envelope.quadratic`, which owns its coefficients;
* :class:`DistanceFunction` — a *piecewise* hyperbola attached to an object
  id, covering trajectories that consist of several segments inside the query
  window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ...core.tolerances import TIME_TOLERANCE
from . import quadratic


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

    def value(self, t: float) -> float:
        """Distance at time ``t``, its square clamped at zero."""
        return math.sqrt(quadratic.clamped(quadratic.value(self.a, self.b, self.c, t)))

    @property
    def vertex_time(self) -> Optional[float]:
        """Time at which the underlying parabola attains its minimum.

        ``None`` for a degenerate (constant-relative-velocity-zero) curve,
        whose distance is constant in time.
        """
        return None if quadratic.is_linear(self.a) else quadratic.vertex(self.a, self.b)

    @staticmethod
    def from_relative_motion(
        rel_x: float,
        rel_y: float,
        rel_vx: float,
        rel_vy: float,
        t_ref: float,
    ) -> "Hyperbola":
        """The distance from the origin of a relative (difference) object at
        ``(rel_x, rel_y)`` at time ``t_ref`` moving with constant velocity
        ``(rel_vx, rel_vy)``: the curve of ``quadratic.from_relative_motion``."""
        return Hyperbola(*quadratic.from_relative_motion(rel_x, rel_y, rel_vx, rel_vy, t_ref))


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

    def contains(self, t: float, tolerance: float = TIME_TOLERANCE) -> bool:
        """True when ``t`` falls inside the piece's interval."""
        return self.t_start - tolerance <= t <= self.t_end + tolerance


class DistanceFunction:
    """A piecewise-hyperbolic distance function attached to an object id.

    For a trajectory that consists of ``m`` segments inside the query window,
    the distance to the query trajectory is a sequence of ``m`` (or fewer)
    hyperbola pieces.  The envelope algorithms only need evaluation and
    pairwise intersection times, both of which reduce to the single-piece
    primitives of :mod:`~repro.geometry.envelope.quadratic`.
    """

    __slots__ = ("object_id", "pieces", "t_start", "t_end")

    def __init__(self, object_id: object, pieces: Sequence[HyperbolaPiece]):
        if not pieces:
            raise ValueError("a distance function needs at least one piece")
        ordered = sorted(pieces, key=lambda piece: piece.t_start)
        for previous, current in zip(ordered, ordered[1:]):
            if current.t_start < previous.t_end - TIME_TOLERANCE:
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
        if t < self.t_start - TIME_TOLERANCE or t > self.t_end + TIME_TOLERANCE:
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
                crossings.extend(quadratic.crossing_times(piece.curve, other_piece.curve, lo, hi))
        crossings.sort()
        deduplicated: List[float] = []
        for t in crossings:
            if not deduplicated or abs(t - deduplicated[-1]) > TIME_TOLERANCE:
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
