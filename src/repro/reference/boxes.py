"""The scalar segment-box loop: the oracle of the columnar box kernel.

The store's segment box table is loaded, patched and probed with boxes from
one vectorized kernel (:func:`repro.trajectories.columnar.segment_boxes_bulk`
and the leg kernel under it).  This module states what those boxes are one
segment at a time, as :class:`Box3D` objects, so the kernel's rows can be
compared with it ``==``; the A3 grid (:mod:`repro.experiments.grid`) is
built from it as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ..trajectories.trajectory import Trajectory, UncertainTrajectory


@dataclass(frozen=True, slots=True)
class Box3D:
    """A closed axis-aligned box in (x, y, t) space."""

    x_min: float
    y_min: float
    t_min: float
    x_max: float
    y_max: float
    t_max: float

    def __post_init__(self) -> None:
        if self.x_max < self.x_min or self.y_max < self.y_min or self.t_max < self.t_min:
            raise ValueError(f"malformed box: {self}")

    def intersects(self, other: "Box3D") -> bool:
        """True when the two boxes overlap (closed-interval semantics)."""
        return (
            self.x_min <= other.x_max
            and other.x_min <= self.x_max
            and self.y_min <= other.y_max
            and other.y_min <= self.y_max
            and self.t_min <= other.t_max
            and other.t_min <= self.t_max
        )

    def expanded(self, spatial_margin: float, temporal_margin: float = 0.0) -> "Box3D":
        """Box grown by a spatial margin in x/y and a temporal margin in t."""
        if spatial_margin < 0 or temporal_margin < 0:
            raise ValueError("margins must be non-negative")
        return Box3D(
            self.x_min - spatial_margin,
            self.y_min - spatial_margin,
            self.t_min - temporal_margin,
            self.x_max + spatial_margin,
            self.y_max + spatial_margin,
            self.t_max + temporal_margin,
        )


@dataclass(frozen=True, slots=True)
class IndexEntry:
    """One indexed segment: its bounding box and the owning object id."""

    box: Box3D
    object_id: object


def segment_boxes(
    trajectory: Trajectory,
    spatial_margin: float | None = None,
    max_extent: float | None = None,
) -> List[IndexEntry]:
    """Index entries covering a trajectory, one or more per segment.

    A long diagonal segment has a bounding box whose area vastly exceeds the
    swept corridor, which ruins the selectivity of corridor probes.  Passing
    ``max_extent`` subdivides each segment into equal time slices until
    every slice's unexpanded spatial extent is at most ``max_extent`` per
    axis, trading a few more entries for near-tight coverage of the
    polyline in *both* space and time.

    Args:
        trajectory: the trajectory to index.
        spatial_margin: extra spatial slack around the expected polyline; by
            default the uncertainty radius of an :class:`UncertainTrajectory`
            and zero for a crisp one.
        max_extent: maximum per-axis spatial extent of one entry's unexpanded
            box; ``None`` keeps one box per segment.

    Raises:
        ValueError: when the trajectory has no segment with positive
            duration, or ``max_extent <= 0``.
    """
    if spatial_margin is None:
        spatial_margin = (
            trajectory.radius if isinstance(trajectory, UncertainTrajectory) else 0.0
        )
    if max_extent is not None and max_extent <= 0:
        raise ValueError("max_extent must be positive")
    entries = []
    for segment in trajectory.segments():
        span = max(
            abs(segment.end.x - segment.start.x),
            abs(segment.end.y - segment.start.y),
        )
        slices = 1
        if max_extent is not None and span > max_extent:
            slices = math.ceil(span / max_extent)
        for index in range(slices):
            f_lo = index / slices
            f_hi = (index + 1) / slices
            x_a = segment.start.x + (segment.end.x - segment.start.x) * f_lo
            y_a = segment.start.y + (segment.end.y - segment.start.y) * f_lo
            x_b = segment.start.x + (segment.end.x - segment.start.x) * f_hi
            y_b = segment.start.y + (segment.end.y - segment.start.y) * f_hi
            t_a = segment.t_start + segment.duration * f_lo
            t_b = segment.t_start + segment.duration * f_hi
            entries.append(
                IndexEntry(
                    Box3D(
                        min(x_a, x_b) - spatial_margin,
                        min(y_a, y_b) - spatial_margin,
                        t_a,
                        max(x_a, x_b) + spatial_margin,
                        max(y_a, y_b) + spatial_margin,
                        t_b,
                    ),
                    trajectory.object_id,
                )
            )
    return entries
