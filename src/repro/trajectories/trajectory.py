"""Trajectories and uncertain trajectories (Section 2.1 of the paper).

A trajectory is a function ``Time → R²`` represented as a sequence of
``(x, y, t)`` samples with linear interpolation in between (Eq. 1).  An
*uncertain* trajectory augments it with the uncertainty radius ``r`` and the
location pdf inside the uncertainty disk.

A trajectory holds its samples in one of two forms and derives the other
once, on first read: built from samples, its ``(ts, xs, ys)`` float64
:attr:`Trajectory.columns` are computed lazily; restored over columns (a
snapshot's mapped views, :meth:`UncertainTrajectory.from_columns`), its
:attr:`Trajectory.samples` tuple is.  :meth:`Trajectory.extended` records
its base without keeping it alive, so :meth:`Trajectory.extends` is the one
O(1) extension rule, and an extension's columns are its base's plus its
tail's.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..geometry.disk import Disk
from ..geometry.point import Point2D, Vector2D
from ..geometry.segment import SpaceTimeSegment
from ..uncertainty.pdf import RadialPDF
from ..uncertainty.uniform import UniformDiskPDF

from ..core.tolerances import TIME_TOLERANCE as _TIME_TOLERANCE

_sample_time = attrgetter("t")


@dataclass(frozen=True, slots=True)
class TrajectorySample:
    """One ``(x, y, t)`` sample of a trajectory."""

    x: float
    y: float
    t: float

    @property
    def location(self) -> Point2D:
        """The spatial part of the sample."""
        return Point2D(self.x, self.y)


SampleLike = Union[TrajectorySample, Tuple[float, float, float]]

#: ``(ts, xs, ys)``: one float64 array per sample field, in sample order.
Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _ordered(
    samples: Iterable[SampleLike], previous: Optional[TrajectorySample] = None
) -> List[TrajectorySample]:
    """``samples`` as time-ordered :class:`TrajectorySample` objects after ``previous``.

    A regression beyond the time tolerance is an error; a sub-tolerance one
    (float noise) is snapped to the previous time, keeping the time column
    non-decreasing for np.interp over packed columns.  Equal-time samples
    remain the zero-length legs ``segments()`` skips.
    """
    normalized: List[TrajectorySample] = []
    for sample in samples:
        if not isinstance(sample, TrajectorySample):
            x, y, t = sample
            sample = TrajectorySample(float(x), float(y), float(t))
        if previous is not None and sample.t < previous.t:
            if sample.t < previous.t - _TIME_TOLERANCE:
                raise ValueError(
                    f"trajectory samples must be time-ordered: {previous.t} then {sample.t}"
                )
            sample = TrajectorySample(sample.x, sample.y, previous.t)
        normalized.append(sample)
        previous = sample
    return normalized


def _sample_columns(samples: Sequence[TrajectorySample]) -> Columns:
    return (
        np.array([sample.t for sample in samples], dtype=float),
        np.array([sample.x for sample in samples], dtype=float),
        np.array([sample.y for sample in samples], dtype=float),
    )


class Trajectory:
    """A crisp (uncertainty-free) trajectory: a time-monotone 2D polyline."""

    __slots__ = ("object_id", "_samples", "_columns", "_base", "__weakref__")

    def __init__(self, object_id: object, samples: Sequence[SampleLike]):
        if len(samples) < 2:
            raise ValueError("a trajectory needs at least two samples")
        self._init(object_id, tuple(_ordered(samples)), None, None)

    def _init(
        self,
        object_id: object,
        samples: Optional[Tuple[TrajectorySample, ...]],
        columns: Optional[Columns],
        base: Optional["weakref.ref[Trajectory]"],
    ) -> None:
        self.object_id = object_id
        self._samples = samples
        self._columns = columns
        #: The trajectory this one was ``extended()`` from, held weakly.
        self._base = base

    @property
    def samples(self) -> Tuple[TrajectorySample, ...]:
        """The ``(x, y, t)`` samples (built from the columns on first read)."""
        samples = self._samples
        if samples is None:
            ts, xs, ys = self._columns  # type: ignore[misc]
            samples = tuple(map(TrajectorySample, xs.tolist(), ys.tolist(), ts.tolist()))
            self._samples = samples
        return samples

    @property
    def columns(self) -> Columns:
        """The ``(ts, xs, ys)`` float64 sample columns, derived once on first
        read; the arrays are shared, never written."""
        columns = self._columns
        samples = self._samples
        if columns is None:
            columns = self._columns = _sample_columns(samples)  # type: ignore[arg-type]
        elif samples is not None and columns[0].size < len(samples):
            # An extension holds its base's columns until its tail is read.
            tail = _sample_columns(samples[columns[0].size :])
            columns = self._columns = tuple(  # type: ignore[assignment]
                np.concatenate(pair) for pair in zip(columns, tail)
            )
        return columns

    def extended(self, samples: Iterable[SampleLike]) -> "Trajectory":
        """The constructor over ``self.samples + samples``, validating only the
        new samples and sharing this trajectory's sample objects.

        The extension records this trajectory as its base without keeping
        it alive (see :meth:`extends`), and takes over whatever columns of
        it exist: its own are those plus its tail's, however many
        extensions later they are first read.
        """
        extension = type(self).__new__(type(self))
        head = self.samples
        extension._init(
            self.object_id,
            head + tuple(_ordered(samples, head[-1])),
            self._columns,
            weakref.ref(self),
        )
        return extension

    def extends(self, other: "Trajectory") -> bool:
        """True when this trajectory was made by ``other.extended(...)``.

        O(1): the base recorded by :meth:`extended` is compared by identity,
        no sample is.  A trajectory built any other way, even with equal
        samples, extends nothing.
        """
        base = self._base
        return base is not None and other is not None and base() is other

    def __getstate__(self):
        """The slots but the base record, which a weak reference holds: a
        copy keeps the samples and columns, and extends nothing."""
        slots = {
            name: getattr(self, name)
            for cls in type(self).__mro__
            for name in getattr(cls, "__slots__", ())
            if name != "__weakref__" and hasattr(self, name)
        }
        slots["_base"] = None
        return None, slots

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"Trajectory(id={self.object_id!r}, samples={len(self.samples)}, "
            f"span=[{self.start_time:.2f}, {self.end_time:.2f}])"
        )

    def __len__(self) -> int:
        samples = self._samples
        return len(self._columns[0]) if samples is None else len(samples)  # type: ignore[index]

    @property
    def start_time(self) -> float:
        """Time of the first sample."""
        samples = self._samples
        return float(self._columns[0][0]) if samples is None else samples[0].t  # type: ignore[index]

    @property
    def end_time(self) -> float:
        """Time of the last sample."""
        samples = self._samples
        return float(self._columns[0][-1]) if samples is None else samples[-1].t  # type: ignore[index]

    @property
    def duration(self) -> float:
        """Total temporal extent of the trajectory."""
        return self.end_time - self.start_time

    def covers_time(self, t: float) -> bool:
        """True when ``t`` lies inside the trajectory's time span."""
        return self.start_time - _TIME_TOLERANCE <= t <= self.end_time + _TIME_TOLERANCE

    def covers_interval(self, t_lo: float, t_hi: float) -> bool:
        """True when the whole interval ``[t_lo, t_hi]`` is covered."""
        return self.covers_time(t_lo) and self.covers_time(t_hi)

    def segments(self) -> List[SpaceTimeSegment]:
        """The constant-velocity legs of the trajectory, in temporal order.

        Zero-duration legs (repeated timestamps) are skipped.
        """
        samples = self.samples
        legs = [
            self._leg(index)
            for index in range(len(samples) - 1)
            if samples[index + 1].t - samples[index].t > _TIME_TOLERANCE
        ]
        if not legs:
            raise ValueError("trajectory has no segment with positive duration")
        return legs

    def segment_at(self, t: float) -> SpaceTimeSegment:
        """The segment covering time ``t``.

        The first leg of positive duration whose span widened by the time
        tolerance contains ``t``, else the last such leg; zero-duration legs
        are skipped exactly as :meth:`segments` skips them.  The leg is
        found by bisection over the sample times and only that one segment
        is built.
        """
        if not self.covers_time(t):
            raise ValueError(
                f"time {t} outside trajectory span [{self.start_time}, {self.end_time}]"
            )
        samples = self.samples
        last = len(samples) - 1
        # Leg k joins samples k and k+1.  ``t <= samples[k+1].t + tol`` is
        # monotone in k, so bisection lands on the first leg satisfying it;
        # ``samples[k].t - tol <= t`` then holds on a prefix of the legs, and
        # only zero-duration legs can stand between the two.
        leg = (
            bisect_left(
                samples, t, 1, last, key=lambda sample: sample.t + _TIME_TOLERANCE
            )
            - 1
        )
        while leg < last and samples[leg].t - _TIME_TOLERANCE <= t:
            if samples[leg + 1].t - samples[leg].t > _TIME_TOLERANCE:
                return self._leg(leg)
            leg += 1
        for leg in range(last - 1, -1, -1):
            if samples[leg + 1].t - samples[leg].t > _TIME_TOLERANCE:
                return self._leg(leg)
        raise ValueError("trajectory has no segment with positive duration")

    def _leg(self, index: int) -> SpaceTimeSegment:
        previous, current = self.samples[index], self.samples[index + 1]
        return SpaceTimeSegment(
            Point2D(previous.x, previous.y),
            Point2D(current.x, current.y),
            previous.t,
            current.t,
        )

    def _interior(self, t_lo: float, t_hi: float) -> Tuple[TrajectorySample, ...]:
        """The samples with times strictly inside ``(t_lo, t_hi)``, by bisection."""
        samples = self.samples
        first = bisect_right(samples, t_lo + _TIME_TOLERANCE, key=_sample_time)
        stop = bisect_left(samples, t_hi - _TIME_TOLERANCE, key=_sample_time)
        return samples[first:stop]

    def position_at(self, t: float) -> Point2D:
        """Expected location at time ``t`` (linear interpolation, Eq. 1)."""
        return self.segment_at(t).position_at(t)

    def velocity_at(self, t: float) -> Vector2D:
        """Velocity vector of the segment active at time ``t``."""
        return self.segment_at(t).velocity

    def sample_times(self) -> List[float]:
        """Times of the stored samples."""
        return [sample.t for sample in self.samples]

    def breakpoints_in(self, t_lo: float, t_hi: float) -> List[float]:
        """Sample times strictly inside ``(t_lo, t_hi)``."""
        return [sample.t for sample in self._interior(t_lo, t_hi)]

    def clipped(self, t_lo: float, t_hi: float) -> "Trajectory":
        """A new trajectory restricted to ``[t_lo, t_hi]``.

        Raises:
            ValueError: when the window is not covered by the trajectory.
        """
        if not self.covers_interval(t_lo, t_hi):
            raise ValueError(
                f"window [{t_lo}, {t_hi}] not covered by trajectory "
                f"[{self.start_time}, {self.end_time}]"
            )
        start = self.position_at(t_lo)
        end = self.position_at(t_hi)
        clipped_samples = [
            TrajectorySample(start.x, start.y, t_lo),
            *self._interior(t_lo, t_hi),
            TrajectorySample(end.x, end.y, t_hi),
        ]
        return Trajectory(self.object_id, clipped_samples)

    def spatial_bounds(self) -> Tuple[float, float, float, float]:
        """Axis-aligned bounding box ``(xmin, ymin, xmax, ymax)`` of the polyline."""
        xs = [sample.x for sample in self.samples]
        ys = [sample.y for sample in self.samples]
        return (min(xs), min(ys), max(xs), max(ys))

    def total_length(self) -> float:
        """Total spatial length of the polyline."""
        return sum(segment.length for segment in self.segments())

    @staticmethod
    def from_waypoints(
        object_id: object, waypoints: Iterable[Tuple[float, float, float]]
    ) -> "Trajectory":
        """Build a trajectory directly from ``(x, y, t)`` triples."""
        return Trajectory(object_id, list(waypoints))


class UncertainTrajectory(Trajectory):
    """A trajectory plus its uncertainty radius and location pdf.

    At any instant the object's true location lies within ``radius`` of the
    expected (interpolated) location, distributed according to ``pdf``
    (rotationally symmetric, as required by Theorem 1).
    """

    __slots__ = ("radius", "pdf")

    def __init__(
        self,
        object_id: object,
        samples: Sequence[SampleLike],
        radius: float,
        pdf: Optional[RadialPDF] = None,
    ):
        super().__init__(object_id, samples)
        self._set_uncertainty(radius, pdf)

    @classmethod
    def from_columns(
        cls,
        object_id: object,
        columns: Columns,
        radius: float,
        pdf: Optional[RadialPDF] = None,
    ) -> "UncertainTrajectory":
        """A trajectory over ``(ts, xs, ys)`` columns, taken as they are.

        The columns are trusted (a snapshot's checksummed, once validated
        samples): no ordering pass runs and no sample is read until
        :attr:`samples` is, so a restore touches no page it does not need.
        """
        trajectory = cls.__new__(cls)
        trajectory._init(object_id, None, columns, None)
        trajectory._set_uncertainty(radius, pdf)
        return trajectory

    def _set_uncertainty(self, radius: float, pdf: Optional[RadialPDF]) -> None:
        if radius <= 0.0:
            raise ValueError(f"uncertainty radius must be positive, got {radius}")
        if pdf is None:
            pdf = UniformDiskPDF(radius)
        if pdf.support_radius > radius + 1e-9:
            raise ValueError(
                "pdf support radius exceeds the declared uncertainty radius: "
                f"{pdf.support_radius} > {radius}"
            )
        self.radius = float(radius)
        self.pdf = pdf

    def extended(
        self,
        samples: Iterable[SampleLike],
        radius: Optional[float] = None,
        pdf: Optional[RadialPDF] = None,
    ) -> "UncertainTrajectory":
        """:meth:`Trajectory.extended` with the constructor's radius and pdf
        checks; without a ``radius`` the radius and (unless given) pdf stay."""
        if radius is None:
            radius, pdf = self.radius, self.pdf if pdf is None else pdf
        extension = super().extended(samples)
        extension._set_uncertainty(radius, pdf)
        return extension  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"UncertainTrajectory(id={self.object_id!r}, r={self.radius}, "
            f"samples={len(self.samples)})"
        )

    def uncertainty_disk_at(self, t: float) -> Disk:
        """The uncertainty disk ``D_i(t)`` at time ``t``."""
        return Disk(self.position_at(t), self.radius)

    def crisp(self) -> Trajectory:
        """The underlying crisp trajectory (expected locations only)."""
        return Trajectory(self.object_id, self.samples)

    def clipped(self, t_lo: float, t_hi: float) -> "UncertainTrajectory":
        crisp = super().clipped(t_lo, t_hi)
        return UncertainTrajectory(self.object_id, crisp.samples, self.radius, self.pdf)

    def with_radius(self, radius: float, pdf: Optional[RadialPDF] = None) -> "UncertainTrajectory":
        """A copy of the trajectory with a different uncertainty radius/pdf."""
        return UncertainTrajectory(self.object_id, self.samples, radius, pdf)
