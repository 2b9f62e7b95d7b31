"""Per-object update feeds: from raw reports to extendable trajectories.

The monitor ingests the two Section 2.1 update disciplines through *feeds*,
one per moving object:

* :class:`LocationFeed` — ``(x, y, t)`` reports under a speed bound; the
  uncertainty radius is the running maximum of the Pfoser/Jensen ellipse
  bounds, maintained incrementally so a push costs O(1) instead of
  re-deriving the whole stream.  A feed fed the same ordered reports produces
  exactly :func:`repro.trajectories.updates.trajectory_from_updates`.
* :class:`DeadReckoningFeed` — ``(x, y, t, v)`` reports under the ``D_max``
  contract, materialized through
  :func:`repro.trajectories.updates.trajectory_from_dead_reckoning`.

Feeds can be *seeded* with an object's already-stored trajectory, so a fleet
with historical motion keeps its past while updates extend the future.  The
:class:`StreamIngestor` keys feeds by object id and hands the monitor the
set of dirty (changed-since-last-build) trajectories per batch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from ..trajectories.trajectory import TrajectorySample, UncertainTrajectory
from ..trajectories.updates import (
    LocationUpdate,
    VelocityUpdate,
    max_ellipse_uncertainty,
    trajectory_from_dead_reckoning,
)
from ..uncertainty.uniform import UniformDiskPDF

from ..core.tolerances import TIME_TOLERANCE as _TIME_TOLERANCE

LocationReport = Union[LocationUpdate, Tuple[float, float, float]]


class LocationFeed:
    """Accumulates ``(location, time)`` reports for one object.

    Args:
        object_id: id of the fed object.
        max_speed: the speed bound of the ellipse uncertainty model.
        minimum_radius: floor on the uncertainty radius.
        seed: optional already-stored trajectory to extend; its samples
            become the feed's history and its radius joins the running
            maximum.
    """

    def __init__(
        self,
        object_id: object,
        max_speed: float,
        minimum_radius: float = 1e-3,
        seed: Optional[UncertainTrajectory] = None,
    ):
        if max_speed <= 0:
            raise ValueError("max speed must be positive")
        if minimum_radius <= 0:
            raise ValueError("the minimum radius must be positive")
        self.object_id = object_id
        self.max_speed = max_speed
        #: The last built trajectory (the seed first) and the reports since.
        self._built: Optional[UncertainTrajectory] = None
        self._pending: List[TrajectorySample] = []
        self._radius = minimum_radius
        self._last: Optional[LocationUpdate] = None
        self.dirty = False
        if seed is not None:
            if seed.object_id != object_id:
                raise ValueError(
                    f"seed trajectory belongs to {seed.object_id!r}, not {object_id!r}"
                )
            self._built = seed
            self._radius = max(self._radius, seed.radius)
            last = seed.samples[-1]
            self._last = LocationUpdate(last.x, last.y, last.t)

    @property
    def radius(self) -> float:
        """Current uncertainty radius (monotone under pushes)."""
        return self._radius

    @property
    def sample_count(self) -> int:
        """Reports (plus seed samples) the feed currently holds."""
        return len(self._pending) + (0 if self._built is None else len(self._built.samples))

    def push(self, report: LocationReport) -> None:
        """Append one report; times must be strictly increasing.

        Raises:
            ValueError: on a non-increasing timestamp (a zero ``Δt`` between
                reports carries no motion information and would make the
                ellipse bound degenerate) or an unreachable jump.
        """
        update = (
            report
            if isinstance(report, LocationUpdate)
            else LocationUpdate(float(report[0]), float(report[1]), float(report[2]))
        )
        if self._last is not None:
            if update.t <= self._last.t + _TIME_TOLERANCE:
                raise ValueError(
                    f"report at t={update.t} does not advance past t={self._last.t}"
                )
            self._radius = max(
                self._radius,
                max_ellipse_uncertainty(self._last, update, self.max_speed),
            )
        self._pending.append(TrajectorySample(update.x, update.y, update.t))
        self._last = update
        self.dirty = True

    def push_all(self, reports) -> None:
        """Append several reports in order (see :meth:`push`)."""
        for report in reports:
            self.push(report)

    def can_build(self) -> bool:
        """True once the feed has enough reports to form a trajectory."""
        return self.sample_count >= 2

    def trajectory(self) -> UncertainTrajectory:
        """The uncertain trajectory covering every report so far: the last
        built one extended by the reports since (validating only those).

        Raises:
            ValueError: with fewer than two accumulated samples (a single
                report fixes a point, not a motion).
        """
        if not self.can_build():
            raise ValueError(
                f"feed for {self.object_id!r} holds {self.sample_count} report(s); "
                "need at least two to build a trajectory"
            )
        pdf = UniformDiskPDF(self._radius)
        if self._built is None:
            built = UncertainTrajectory(self.object_id, self._pending, self._radius, pdf)
        else:
            built = self._built.extended(self._pending, self._radius, pdf)
        self._built, self._pending = built, []
        return built


class DeadReckoningFeed:
    """Accumulates dead-reckoning reports for one object.

    Args:
        object_id: id of the fed object.
        d_max: the dead-reckoning threshold (also the uncertainty radius).
        seed: optional already-stored trajectory to extend; updates must
            start at or after its end time.
    """

    def __init__(
        self,
        object_id: object,
        d_max: float,
        seed: Optional[UncertainTrajectory] = None,
    ):
        if d_max <= 0:
            raise ValueError("the dead-reckoning threshold must be positive")
        self.object_id = object_id
        self.d_max = d_max
        self._updates: List[VelocityUpdate] = []
        self._seed = seed
        self.dirty = False
        if seed is not None and seed.object_id != object_id:
            raise ValueError(
                f"seed trajectory belongs to {seed.object_id!r}, not {object_id!r}"
            )

    def push(self, update: VelocityUpdate) -> None:
        """Append one report; times must be strictly increasing."""
        if self._updates and update.t <= self._updates[-1].t + _TIME_TOLERANCE:
            raise ValueError(
                f"report at t={update.t} does not advance past t={self._updates[-1].t}"
            )
        if (
            self._seed is not None
            and not self._updates
            and update.t < self._seed.end_time - _TIME_TOLERANCE
        ):
            raise ValueError(
                f"first report at t={update.t} precedes the seed trajectory's end "
                f"t={self._seed.end_time}"
            )
        self._updates.append(update)
        self.dirty = True

    def push_all(self, updates) -> None:
        """Append several dead-reckoning updates in order (see :meth:`push`)."""
        for update in updates:
            self.push(update)

    def can_build(self) -> bool:
        """True once at least one update can seed an extrapolation."""
        return bool(self._updates)

    def trajectory(self, end_time: Optional[float] = None) -> UncertainTrajectory:
        """The dead-reckoned trajectory over seed history plus all reports.

        Args:
            end_time: horizon to extrapolate the last report to; defaults to
                the last report time plus one time unit (the converter's
                default).
        """
        if not self._updates:
            raise ValueError(f"feed for {self.object_id!r} holds no reports")
        tail = trajectory_from_dead_reckoning(
            self.object_id, self._updates, self.d_max, end_time=end_time
        )
        if self._seed is None:
            return tail
        head = [
            sample
            for sample in self._seed.samples
            if sample.t < tail.start_time - _TIME_TOLERANCE
        ]
        radius = max(self.d_max, self._seed.radius)
        return UncertainTrajectory(
            self.object_id,
            head + list(tail.samples),
            radius,
            UniformDiskPDF(radius),
        )


Feed = Union[LocationFeed, DeadReckoningFeed]


class StreamIngestor:
    """Feeds keyed by object id plus dirty-set bookkeeping for batching."""

    def __init__(self) -> None:
        self._feeds: Dict[object, Feed] = {}

    def __contains__(self, object_id: object) -> bool:
        return object_id in self._feeds

    def __len__(self) -> int:
        return len(self._feeds)

    def location_feed(
        self,
        object_id: object,
        max_speed: float,
        minimum_radius: float = 1e-3,
        seed: Optional[UncertainTrajectory] = None,
    ) -> LocationFeed:
        """Create (and register) a location feed for an object."""
        if object_id in self._feeds:
            raise KeyError(f"object {object_id!r} already has a feed")
        feed = LocationFeed(object_id, max_speed, minimum_radius, seed=seed)
        self._feeds[object_id] = feed
        return feed

    def dead_reckoning_feed(
        self,
        object_id: object,
        d_max: float,
        seed: Optional[UncertainTrajectory] = None,
    ) -> DeadReckoningFeed:
        """Create (and register) a dead-reckoning feed for an object."""
        if object_id in self._feeds:
            raise KeyError(f"object {object_id!r} already has a feed")
        feed = DeadReckoningFeed(object_id, d_max, seed=seed)
        self._feeds[object_id] = feed
        return feed

    def feed(self, object_id: object) -> Feed:
        """The feed of one object.

        Raises:
            KeyError: when no feed is registered for the id.
        """
        if object_id not in self._feeds:
            raise KeyError(f"no feed registered for object {object_id!r}")
        return self._feeds[object_id]

    def push(self, object_id: object, update) -> None:
        """Route one report to the object's feed."""
        self.feed(object_id).push(update)

    def dirty_ids(self) -> Set[object]:
        """Objects with unconsumed reports."""
        return {
            object_id for object_id, feed in self._feeds.items() if feed.dirty
        }

    def build_dirty(
        self, end_time: Optional[float] = None
    ) -> Dict[object, UncertainTrajectory]:
        """Materialize every dirty, buildable feed and mark it clean.

        Feeds that cannot form a trajectory yet (a location feed with a
        single report) stay dirty and are skipped.

        Args:
            end_time: extrapolation horizon passed to dead-reckoning feeds.
        """
        built: Dict[object, UncertainTrajectory] = {}
        for object_id, feed in self._feeds.items():
            if not feed.dirty or not feed.can_build():
                continue
            if isinstance(feed, DeadReckoningFeed):
                built[object_id] = feed.trajectory(end_time=end_time)
            else:
                built[object_id] = feed.trajectory()
            feed.dirty = False
        return built
