"""The linear-scan leg lookup, retained as the oracle of ``Trajectory.segment_at``.

This is the lookup the trajectory class shipped with: build every
positive-duration leg and scan them in order.  The production lookup finds
the same leg by bisection; ``test_trajectory.py`` pins the two bit for bit.
"""

from __future__ import annotations

from typing import List

from repro.core.tolerances import TIME_TOLERANCE
from repro.geometry.point import Point2D, Vector2D
from repro.geometry.segment import SpaceTimeSegment
from repro.trajectories.trajectory import Trajectory


def segment_at(trajectory: Trajectory, t: float) -> SpaceTimeSegment:
    """The first leg whose tolerance-widened span contains ``t``, else the last."""
    if not trajectory.covers_time(t):
        raise ValueError(
            f"time {t} outside trajectory span "
            f"[{trajectory.start_time}, {trajectory.end_time}]"
        )
    for segment in trajectory.segments():
        if segment.contains_time(t):
            return segment
    return trajectory.segments()[-1]


def position_at(trajectory: Trajectory, t: float) -> Point2D:
    return segment_at(trajectory, t).position_at(t)


def velocity_at(trajectory: Trajectory, t: float) -> Vector2D:
    return segment_at(trajectory, t).velocity


def breakpoints_in(trajectory: Trajectory, t_lo: float, t_hi: float) -> List[float]:
    """Sample times strictly inside ``(t_lo, t_hi)``."""
    return [
        sample.t
        for sample in trajectory.samples
        if t_lo + TIME_TOLERANCE < sample.t < t_hi - TIME_TOLERANCE
    ]
