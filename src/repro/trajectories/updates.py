"""Alternative motion/uncertainty models of Section 2.1 (Figure 3a/3b).

The paper's main results assume the *full trajectory* model, but Section 2.1
surveys the two other common MOD settings and this module implements them so
users with update-stream data can get onto the trajectory pipeline:

* **(location, time) updates** (Figure 3.a) — between two consecutive updates
  the object's whereabouts are bounded by an ellipse whose foci are the two
  reported locations, with major axis ``v_max · Δt`` (Pfoser & Jensen).
  :func:`ellipse_uncertainty_bound` evaluates that bound, and
  :func:`trajectory_from_updates` builds an uncertain trajectory from the
  update stream by bounding the ellipse with a disk radius: the bound's
  exact supremum over each leg, in closed form (:func:`max_ellipse_uncertainty`).
* **(location, time, velocity) updates with dead reckoning** (Figure 3.b) —
  the server extrapolates the last report with its velocity and the object
  promises to send a new update whenever it strays more than ``D_max`` from
  that extrapolation.  :func:`trajectory_from_dead_reckoning` turns such a
  stream into an uncertain trajectory with radius ``D_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..uncertainty.uniform import UniformDiskPDF
from .trajectory import TrajectorySample, UncertainTrajectory


@dataclass(frozen=True, slots=True)
class LocationUpdate:
    """One ``(x, y, t)`` report from a moving object."""

    x: float
    y: float
    t: float


@dataclass(frozen=True, slots=True)
class VelocityUpdate:
    """One ``(x, y, t, vx, vy)`` dead-reckoning report."""

    x: float
    y: float
    t: float
    vx: float
    vy: float


def ellipse_uncertainty_bound(
    first: LocationUpdate, second: LocationUpdate, max_speed: float, t: float
) -> float:
    """Maximum distance from the interpolated position at time ``t``.

    Between two updates, an object bounded by ``max_speed`` must lie inside
    the ellipse with foci at the two reported locations and major axis
    ``max_speed · (t2 − t1)``.  This helper returns the distance from the
    *linearly interpolated* expected position to the farthest point of the
    intersection of the two reachability disks (a conservative circular bound
    on the ellipse cross-section at time ``t``), which is what the trajectory
    model needs as an uncertainty radius.

    Raises:
        ValueError: when the updates are unreachable at ``max_speed`` or the
            time lies outside the update interval.
    """
    if second.t <= first.t:
        raise ValueError("updates must be strictly time-ordered")
    if not first.t <= t <= second.t:
        raise ValueError(f"time {t} outside the update interval [{first.t}, {second.t}]")
    if max_speed <= 0:
        raise ValueError("max speed must be positive")
    gap = math.hypot(second.x - first.x, second.y - first.y)
    if gap > max_speed * (second.t - first.t) + 1e-9:
        raise ValueError(
            "the two updates are not reachable from one another at the given max speed"
        )

    # Radii of the forward and backward reachability disks at time t.
    forward = max_speed * (t - first.t)
    backward = max_speed * (second.t - t)
    # Expected (interpolated) position.
    fraction = (t - first.t) / (second.t - first.t)
    expected_x = first.x + fraction * (second.x - first.x)
    expected_y = first.y + fraction * (second.y - first.y)
    # Farthest point of the lens from the expected position is bounded by the
    # smaller of: how far the forward disk extends beyond the expected point,
    # and how far the backward disk does.
    from_first = math.hypot(expected_x - first.x, expected_y - first.y)
    from_second = math.hypot(expected_x - second.x, expected_y - second.y)
    return max(0.0, min(forward - from_first, backward - from_second))


def max_ellipse_uncertainty(
    first: LocationUpdate, second: LocationUpdate, max_speed: float
) -> float:
    """Largest circular uncertainty bound over the update interval, exactly:
    at fraction ``f`` of the leg :func:`ellipse_uncertainty_bound` (whose
    checks this runs) is ``(v·Δt − gap)·min(f, 1 − f)``, so the supremum is
    ``max(0, (v·Δt − gap) / 2)``, at the midpoint."""
    ellipse_uncertainty_bound(first, second, max_speed, first.t)
    gap = math.hypot(second.x - first.x, second.y - first.y)
    return max(0.0, (max_speed * (second.t - first.t) - gap) / 2.0)


def trajectory_from_updates(
    object_id: object,
    updates: Sequence[LocationUpdate],
    max_speed: float,
    minimum_radius: float = 1e-3,
) -> UncertainTrajectory:
    """Build an uncertain trajectory from a ``(location, time)`` update stream.

    The expected motion is the linear interpolation of the updates (exactly
    the paper's trajectory model); the uncertainty radius is the largest
    circular bound of the between-update ellipses, so the disk model soundly
    over-approximates the ellipse model.

    Args:
        object_id: id for the resulting trajectory.
        updates: at least two time-ordered reports.
        max_speed: the speed bound used for the ellipse.
        minimum_radius: floor on the radius (a zero radius would mean a crisp
            trajectory, which the uncertain model does not allow).
    """
    if len(updates) < 2:
        raise ValueError("need at least two location updates")
    ordered = sorted(updates, key=lambda update: update.t)
    radius = minimum_radius
    for first, second in zip(ordered, ordered[1:]):
        radius = max(radius, max_ellipse_uncertainty(first, second, max_speed))
    samples = [TrajectorySample(update.x, update.y, update.t) for update in ordered]
    return UncertainTrajectory(object_id, samples, radius, UniformDiskPDF(radius))


def dead_reckoning_positions(
    updates: Sequence[VelocityUpdate], times: Sequence[float]
) -> List[TrajectorySample]:
    """Server-side dead-reckoned positions at the requested times.

    Each time is resolved against the latest update at or before it; the
    position is the update's location extrapolated with its velocity.
    """
    if not updates:
        raise ValueError("need at least one velocity update")
    ordered = sorted(updates, key=lambda update: update.t)
    samples = []
    for t in times:
        current: Optional[VelocityUpdate] = None
        for update in ordered:
            if update.t <= t:
                current = update
            else:
                break
        if current is None:
            raise ValueError(f"time {t} precedes the first update at {ordered[0].t}")
        dt = t - current.t
        samples.append(
            TrajectorySample(current.x + current.vx * dt, current.y + current.vy * dt, t)
        )
    return samples


def trajectory_from_dead_reckoning(
    object_id: object,
    updates: Sequence[VelocityUpdate],
    d_max: float,
    end_time: Optional[float] = None,
) -> UncertainTrajectory:
    """Build an uncertain trajectory from a dead-reckoning update stream.

    The dead-reckoning contract is that the true position never strays more
    than ``d_max`` from the extrapolation of the latest update, so the
    resulting trajectory uses exactly that as its uncertainty radius.  Sample
    points are placed at every update time (where the expected position jumps
    to the reported one) plus the extrapolated end point.

    Args:
        object_id: id for the resulting trajectory.
        updates: at least one time-ordered report.
        d_max: the dead-reckoning threshold ``D_max``.
        end_time: horizon to extrapolate the last update to; defaults to the
            last update time plus one time unit.
    """
    if d_max <= 0:
        raise ValueError("the dead-reckoning threshold must be positive")
    if not updates:
        raise ValueError("need at least one velocity update")
    ordered = sorted(updates, key=lambda update: update.t)
    if end_time is None:
        end_time = ordered[-1].t + 1.0
    if end_time <= ordered[0].t:
        raise ValueError("the horizon must extend beyond the first update")

    samples: List[TrajectorySample] = []
    for update, following in zip(ordered, ordered[1:]):
        samples.append(TrajectorySample(update.x, update.y, update.t))
        # Expected location just before the next report: the extrapolation.
        dt = following.t - update.t
        samples.append(
            TrajectorySample(
                update.x + update.vx * dt, update.y + update.vy * dt, following.t
            )
        )
    last = ordered[-1]
    samples.append(TrajectorySample(last.x, last.y, last.t))
    dt = end_time - last.t
    samples.append(
        TrajectorySample(last.x + last.vx * dt, last.y + last.vy * dt, end_time)
    )
    # Collapse duplicate timestamps introduced by the jump-to-report samples:
    # keep the *reported* location at each update time (server corrects).
    deduplicated: List[TrajectorySample] = []
    for sample in samples:
        if deduplicated and abs(sample.t - deduplicated[-1].t) < 1e-12:
            deduplicated[-1] = sample
            continue
        deduplicated.append(sample)
    return UncertainTrajectory(object_id, deduplicated, d_max, UniformDiskPDF(d_max))
