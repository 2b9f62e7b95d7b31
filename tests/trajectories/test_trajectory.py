"""Tests for the trajectory and uncertain-trajectory model."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.tolerances import TIME_TOLERANCE
from repro.trajectories.trajectory import Trajectory, TrajectorySample, UncertainTrajectory
from repro.uncertainty.gaussian import TruncatedGaussianPDF
from repro.uncertainty.uniform import UniformDiskPDF

from . import linear_scan


@pytest.fixture
def l_shaped() -> Trajectory:
    """East for 10 minutes, then north for 10 minutes."""
    return Trajectory(
        "obj",
        [(0.0, 0.0, 0.0), (10.0, 0.0, 10.0), (10.0, 10.0, 20.0)],
    )


class TestTrajectoryConstruction:
    def test_needs_at_least_two_samples(self):
        with pytest.raises(ValueError):
            Trajectory("x", [(0.0, 0.0, 0.0)])

    def test_rejects_time_regressions(self):
        with pytest.raises(ValueError):
            Trajectory("x", [(0.0, 0.0, 5.0), (1.0, 1.0, 4.0)])

    def test_rejects_regressions_just_beyond_tolerance(self):
        with pytest.raises(ValueError, match="time-ordered"):
            Trajectory("x", [(0.0, 0.0, 5.0), (1.0, 1.0, 5.0 - 1e-6)])

    def test_sub_tolerance_regression_snaps_to_previous_time(self):
        # Float noise from clipping/resampling may step back by less than
        # the time tolerance; the constructor snaps such samples to the
        # previous time so the packed time column stays non-decreasing.
        trajectory = Trajectory(
            "x", [(0.0, 0.0, 0.0), (5.0, 0.0, 5.0), (5.0, 1.0, 5.0 - 1e-12), (5.0, 5.0, 10.0)]
        )
        times = trajectory.sample_times()
        assert times == sorted(times)
        assert times[2] == 5.0
        # The snapped sample keeps its location and becomes a zero-length leg.
        assert trajectory.samples[2].y == 1.0
        assert len(trajectory.segments()) == 2

    def test_equal_time_samples_remain_allowed(self):
        trajectory = Trajectory(
            "x", [(0.0, 0.0, 0.0), (5.0, 0.0, 5.0), (5.0, 2.0, 5.0), (5.0, 5.0, 10.0)]
        )
        assert len(trajectory.segments()) == 2
        assert trajectory.position_at(7.5).as_tuple() == pytest.approx((5.0, 3.5))

    def test_accepts_tuples_and_samples(self):
        trajectory = Trajectory(
            "x", [TrajectorySample(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]
        )
        assert len(trajectory) == 2

    def test_from_waypoints(self):
        trajectory = Trajectory.from_waypoints("w", [(0, 0, 0), (5, 5, 10)])
        assert trajectory.object_id == "w"
        assert trajectory.duration == 10.0


class TestTrajectoryGeometry:
    def test_time_span(self, l_shaped):
        assert l_shaped.start_time == 0.0
        assert l_shaped.end_time == 20.0
        assert l_shaped.duration == 20.0

    def test_covers_time_and_interval(self, l_shaped):
        assert l_shaped.covers_time(15.0)
        assert not l_shaped.covers_time(25.0)
        assert l_shaped.covers_interval(2.0, 18.0)
        assert not l_shaped.covers_interval(2.0, 28.0)

    def test_segments(self, l_shaped):
        segments = l_shaped.segments()
        assert len(segments) == 2
        assert segments[0].velocity.as_tuple() == pytest.approx((1.0, 0.0))
        assert segments[1].velocity.as_tuple() == pytest.approx((0.0, 1.0))

    def test_zero_duration_legs_are_skipped(self):
        trajectory = Trajectory(
            "x", [(0, 0, 0.0), (5, 0, 5.0), (5, 0, 5.0), (5, 5, 10.0)]
        )
        assert len(trajectory.segments()) == 2

    def test_position_interpolation(self, l_shaped):
        assert l_shaped.position_at(5.0).as_tuple() == pytest.approx((5.0, 0.0))
        assert l_shaped.position_at(15.0).as_tuple() == pytest.approx((10.0, 5.0))

    def test_position_outside_span_raises(self, l_shaped):
        with pytest.raises(ValueError):
            l_shaped.position_at(21.0)

    def test_velocity_at(self, l_shaped):
        assert l_shaped.velocity_at(3.0).as_tuple() == pytest.approx((1.0, 0.0))
        assert l_shaped.velocity_at(13.0).as_tuple() == pytest.approx((0.0, 1.0))

    def test_sample_times_and_breakpoints(self, l_shaped):
        assert l_shaped.sample_times() == [0.0, 10.0, 20.0]
        assert l_shaped.breakpoints_in(0.0, 20.0) == [10.0]
        assert l_shaped.breakpoints_in(11.0, 20.0) == []

    def test_spatial_bounds_and_length(self, l_shaped):
        assert l_shaped.spatial_bounds() == (0.0, 0.0, 10.0, 10.0)
        assert l_shaped.total_length() == pytest.approx(20.0)


# Steps between consecutive sample times: repeated timestamps, steps below,
# at and just above the time tolerance, and ordinary legs.
_time_steps = st.sampled_from(
    [0.0, 0.0, 3e-10, 9e-10, TIME_TOLERANCE, 1.5e-9, 2e-9, 0.5, 1.0, 2.25]
)
_coordinates = st.floats(min_value=-25.0, max_value=25.0, allow_nan=False)
# Offsets of a probe time from a sample time: on it, and within and just
# beyond the tolerance on both sides.
_OFFSETS = (0.0, 4e-10, TIME_TOLERANCE, 1.1e-9, 2e-9, 2.5e-9)


@st.composite
def histories(draw):
    """Trajectories of 2..9 samples over adversarial time steps."""
    steps = draw(st.lists(_time_steps, min_size=1, max_size=8))
    t = draw(st.sampled_from([0.0, -3.0, 100.0]))
    samples = [(draw(_coordinates), draw(_coordinates), t)]
    for step in steps:
        t += step
        samples.append((draw(_coordinates), draw(_coordinates), t))
    return Trajectory("h", samples)


def _probe_times(trajectory):
    times = trajectory.sample_times()
    probes = []
    for t in times:
        for offset in _OFFSETS:
            probes.extend(
                (t - offset, t + offset, math.nextafter(t - offset, -math.inf),
                 math.nextafter(t + offset, math.inf))
            )
    probes.extend((a + b) / 2.0 for a, b in zip(times, times[1:]))
    return probes


def _outcome(function, *args):
    """The call's value, or the type and text of the error it raises."""
    try:
        return function(*args)
    except ValueError as error:
        return (type(error), str(error))


class TestLookupMatchesLinearScan:
    """The bisection lookup is pinned bit for bit to the linear-scan oracle."""

    @given(trajectory=histories())
    def test_segment_position_velocity(self, trajectory):
        for t in _probe_times(trajectory):
            assert _outcome(trajectory.segment_at, t) == _outcome(
                linear_scan.segment_at, trajectory, t
            ), t
            assert _outcome(trajectory.position_at, t) == _outcome(
                linear_scan.position_at, trajectory, t
            ), t
            assert _outcome(trajectory.velocity_at, t) == _outcome(
                linear_scan.velocity_at, trajectory, t
            ), t

    @given(trajectory=histories(), data=st.data())
    def test_breakpoints_in(self, trajectory, data):
        probes = st.sampled_from(_probe_times(trajectory))
        for _ in range(8):
            t_lo, t_hi = data.draw(probes), data.draw(probes)
            assert trajectory.breakpoints_in(t_lo, t_hi) == linear_scan.breakpoints_in(
                trajectory, t_lo, t_hi
            ), (t_lo, t_hi)

    def test_no_positive_duration_leg_raises_like_the_scan(self):
        trajectory = Trajectory("x", [(0.0, 0.0, 1.0), (1.0, 1.0, 1.0)])
        assert _outcome(trajectory.segment_at, 1.0) == _outcome(
            linear_scan.segment_at, trajectory, 1.0
        )
        assert _outcome(trajectory.segment_at, 1.0)[0] is ValueError

    def test_time_between_sub_tolerance_steps_takes_the_last_leg(self):
        # No positive-duration leg contains t: both lookups return the last.
        trajectory = Trajectory(
            "x",
            [(0, 0, 0.0), (5, 0, 5.0), (5, 1, 5.0 + 9e-10), (5, 2, 5.0 + 1.8e-9),
             (5, 3, 5.0 + 2.7e-9), (9, 9, 10.0)],
        )
        t = 5.0 + 1.35e-9
        assert trajectory.segment_at(t) == linear_scan.segment_at(trajectory, t)
        assert trajectory.segment_at(t).t_end == 10.0


class TestTrajectoryClipping:
    def test_clipping_inside_one_segment(self, l_shaped):
        clipped = l_shaped.clipped(2.0, 8.0)
        assert clipped.start_time == 2.0
        assert clipped.end_time == 8.0
        assert clipped.position_at(5.0).as_tuple() == pytest.approx((5.0, 0.0))

    def test_clipping_across_breakpoint_keeps_it(self, l_shaped):
        clipped = l_shaped.clipped(5.0, 15.0)
        assert 10.0 in clipped.sample_times()
        assert clipped.position_at(15.0).as_tuple() == pytest.approx((10.0, 5.0))

    def test_clipping_outside_raises(self, l_shaped):
        with pytest.raises(ValueError):
            l_shaped.clipped(-5.0, 10.0)


class TestUncertainTrajectory:
    def make(self, radius=0.5, pdf=None) -> UncertainTrajectory:
        return UncertainTrajectory(
            "u", [(0, 0, 0.0), (10, 0, 10.0)], radius, pdf
        )

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            self.make(radius=0.0)

    def test_default_pdf_is_uniform_with_matching_radius(self):
        trajectory = self.make(radius=0.7)
        assert isinstance(trajectory.pdf, UniformDiskPDF)
        assert trajectory.pdf.radius == pytest.approx(0.7)

    def test_pdf_support_cannot_exceed_radius(self):
        with pytest.raises(ValueError):
            self.make(radius=0.5, pdf=UniformDiskPDF(1.0))

    def test_gaussian_pdf_accepted(self):
        trajectory = self.make(radius=1.0, pdf=TruncatedGaussianPDF(1.0))
        assert trajectory.pdf.support_radius == pytest.approx(1.0)

    def test_uncertainty_disk_follows_expected_location(self):
        trajectory = self.make()
        disk = trajectory.uncertainty_disk_at(5.0)
        assert disk.center.as_tuple() == pytest.approx((5.0, 0.0))
        assert disk.radius == 0.5

    def test_crisp_projection(self):
        crisp = self.make().crisp()
        assert isinstance(crisp, Trajectory)
        assert not isinstance(crisp, UncertainTrajectory)
        assert crisp.object_id == "u"

    def test_clipping_preserves_uncertainty(self):
        clipped = self.make().clipped(2.0, 8.0)
        assert isinstance(clipped, UncertainTrajectory)
        assert clipped.radius == 0.5

    def test_with_radius(self):
        changed = self.make().with_radius(1.5)
        assert changed.radius == 1.5
        assert changed.object_id == "u"


# Tail steps for ``extended``: forward steps, sub-tolerance regressions the
# constructor snaps, and regressions beyond the tolerance it refuses.
_tail_steps = st.sampled_from([0.0, 3e-10, 0.5, 2.25, -4e-10, -9e-10, -2e-9, -0.75])


@st.composite
def tails(draw, start):
    """0..5 samples after time ``start``: tuples (some of ints) or samples."""
    samples, t = [], start
    for step in draw(st.lists(_tail_steps, max_size=5)):
        t += step
        x = draw(st.one_of(st.integers(-5, 5), _coordinates))
        y = draw(_coordinates)
        samples.append(TrajectorySample(x, y, t) if draw(st.booleans()) else (x, y, t))
    return samples


def _typed(samples):
    return [(type(s), type(s.x), s.x, type(s.y), s.y, type(s.t), s.t) for s in samples]


class TestExtended:
    """``extended`` is the constructor over the joined samples, validating the tail only."""

    @given(base=histories(), data=st.data())
    def test_crisp_extension_equals_the_constructor(self, base, data):
        tail = data.draw(tails(base.end_time))
        expected = _outcome(Trajectory, "h", list(base.samples) + tail)
        extended = _outcome(base.extended, tail)
        if isinstance(expected, tuple):
            assert extended == expected  # the same ValueError, word for word
            return
        assert type(extended) is Trajectory and extended.object_id == "h"
        assert _typed(extended.samples) == _typed(expected.samples)
        assert all(extended.samples[i] is base.samples[i] for i in range(len(base)))

    @given(
        base=histories(),
        data=st.data(),
        radius=st.sampled_from([None, 0.25, 1.0, 2.0]),
        pdf=st.sampled_from([None, "uniform", "gaussian"]),
    )
    def test_uncertain_extension_equals_the_constructor(self, base, data, radius, pdf):
        seed = UncertainTrajectory("h", base.samples, 1.0, TruncatedGaussianPDF(1.0))
        tail = data.draw(tails(base.end_time))
        density = {
            None: None, "uniform": UniformDiskPDF(1.0), "gaussian": TruncatedGaussianPDF(1.0)
        }[pdf]
        if radius is None:
            full = (seed.radius, seed.pdf if density is None else density)
        else:
            full = (radius, density)
        expected = _outcome(UncertainTrajectory, "h", list(seed.samples) + tail, *full)
        extended = _outcome(seed.extended, tail, radius, density)
        if isinstance(expected, tuple):
            assert extended == expected
            return
        assert type(extended) is UncertainTrajectory
        assert _typed(extended.samples) == _typed(expected.samples)
        assert extended.radius == expected.radius
        assert type(extended.pdf) is type(expected.pdf)
        assert extended.pdf.support_radius == expected.pdf.support_radius
        assert all(extended.samples[i] is seed.samples[i] for i in range(len(seed)))

    def test_an_empty_tail_keeps_the_samples(self):
        seed = UncertainTrajectory("u", [(0, 0, 0.0), (1, 1, 1.0)], 0.5)
        same = seed.extended([])
        assert same is not seed and same.samples is seed.samples
        assert (same.radius, same.pdf) == (seed.radius, seed.pdf)
