"""Space–time segments: the building blocks of trajectories.

A trajectory in the paper is a polyline in (x, y, t) space with linear
interpolation between consecutive samples (Section 2.1).  The segment object
captures one straight-line, constant-speed leg of that polyline and exposes
the interpolation, velocity, and bounding-box operations that the trajectory
model, the index, and the envelope construction rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .point import Point2D, Vector2D


@dataclass(frozen=True, slots=True)
class SpaceTimeSegment:
    """One constant-velocity leg of a trajectory.

    The object is at ``start`` at time ``t_start`` and at ``end`` at time
    ``t_end``, moving along the straight line between them at constant speed
    (Eq. 1 of the paper).
    """

    start: Point2D
    end: Point2D
    t_start: float
    t_end: float

    def __post_init__(self) -> None:
        if self.t_end < self.t_start:
            raise ValueError(
                f"segment end time {self.t_end} precedes start time {self.t_start}"
            )

    @property
    def duration(self) -> float:
        """Temporal extent of the segment."""
        return self.t_end - self.t_start

    @property
    def length(self) -> float:
        """Spatial length of the segment."""
        return self.start.distance_to(self.end)

    @property
    def velocity(self) -> Vector2D:
        """Constant velocity vector of the segment.

        A zero-duration segment (an instantaneous waypoint) has zero velocity.
        """
        if self.duration <= 0.0:
            return Vector2D(0.0, 0.0)
        return Vector2D(
            (self.end.x - self.start.x) / self.duration,
            (self.end.y - self.start.y) / self.duration,
        )

    @property
    def speed(self) -> float:
        """Scalar speed along the segment (Eq. 1)."""
        return self.velocity.length

    def contains_time(self, t: float, tolerance: float = 1e-9) -> bool:
        """True when ``t`` falls within the segment's time span."""
        return self.t_start - tolerance <= t <= self.t_end + tolerance

    def position_at(self, t: float) -> Point2D:
        """Expected location at time ``t`` by linear interpolation.

        Raises:
            ValueError: when ``t`` lies outside the segment's time span.
        """
        if not self.contains_time(t):
            raise ValueError(
                f"time {t} outside segment span [{self.t_start}, {self.t_end}]"
            )
        if self.duration <= 0.0:
            return self.start
        fraction = (t - self.t_start) / self.duration
        fraction = min(1.0, max(0.0, fraction))
        return Point2D(
            self.start.x + fraction * (self.end.x - self.start.x),
            self.start.y + fraction * (self.end.y - self.start.y),
        )

    def clipped(self, t_lo: float, t_hi: float) -> "SpaceTimeSegment":
        """Return the sub-segment restricted to ``[t_lo, t_hi]``.

        Raises:
            ValueError: when the requested window does not overlap the segment.
        """
        lo = max(self.t_start, t_lo)
        hi = min(self.t_end, t_hi)
        if hi < lo:
            raise ValueError(
                f"window [{t_lo}, {t_hi}] does not overlap segment "
                f"[{self.t_start}, {self.t_end}]"
            )
        return SpaceTimeSegment(self.position_at(lo), self.position_at(hi), lo, hi)

    def spatial_bounds(self) -> Tuple[float, float, float, float]:
        """Axis-aligned spatial bounding box ``(xmin, ymin, xmax, ymax)``."""
        return (
            min(self.start.x, self.end.x),
            min(self.start.y, self.end.y),
            max(self.start.x, self.end.x),
            max(self.start.y, self.end.y),
        )

    def min_distance_to_point(self, point: Point2D) -> float:
        """Minimum distance from a static ``point`` to the segment's spatial track."""
        px = self.end.x - self.start.x
        py = self.end.y - self.start.y
        norm = px * px + py * py
        if norm <= 0.0:
            return self.start.distance_to(point)
        u = ((point.x - self.start.x) * px + (point.y - self.start.y) * py) / norm
        u = min(1.0, max(0.0, u))
        closest = Point2D(self.start.x + u * px, self.start.y + u * py)
        return closest.distance_to(point)

    def distance_at(self, other: "SpaceTimeSegment", t: float) -> float:
        """Distance between the expected locations of two segments at time ``t``."""
        return self.position_at(t).distance_to(other.position_at(t))

    def time_overlap(self, other: "SpaceTimeSegment") -> Tuple[float, float] | None:
        """Common time window of two segments, or ``None`` when disjoint."""
        lo = max(self.t_start, other.t_start)
        hi = min(self.t_end, other.t_end)
        if hi < lo:
            return None
        return (lo, hi)

    def __str__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"SpaceTimeSegment(({self.start.x:.2f},{self.start.y:.2f})@{self.t_start:.2f}"
            f" -> ({self.end.x:.2f},{self.end.y:.2f})@{self.t_end:.2f})"
        )


def euclidean_speed(
    x_from: float, y_from: float, x_to: float, y_to: float, duration: float
) -> float:
    """Scalar speed between two sample points (Eq. 1 of the paper)."""
    if duration <= 0.0:
        raise ValueError("duration must be positive to define a speed")
    return math.hypot(x_to - x_from, y_to - y_from) / duration
