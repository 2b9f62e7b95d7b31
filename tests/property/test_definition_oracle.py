"""Production answers agree with the query semantics taken at their word.

The differential suite proves the production kernels bit-identical to their
references — twins that share one derivation (hyperbolas, envelopes, band
intervals) and so share its mistakes.  This suite compares production with
:mod:`repro.reference.definition`, which evaluates the definitions of
``docs/query-semantics.md`` on dense time samples and knows nothing of that
derivation.

A sample is exact at its instant and blind between instants, so each check
is made at the samples *farther than one step from an interval end* of the
production answer (membership cannot flip there without production having
missed or invented a whole interval), and skips the samples the definition
itself decides by less than ``MARGIN``.  Production is blind too: it brackets
band crossings on a grid of ``_SAMPLES_PER_INTERVAL`` points per row, so an
excursion that fits between two of its grid points is not held against it
(``test_graze_between_grid_points`` pins one).  Fleets are the degenerate
families of the differential suite: zero-length legs, samples on the window
ends, coincident twins, shared and jittered report cadences.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.pruning import _SAMPLES_PER_INTERVAL
from repro.core.queries import QueryContext
from repro.reference.definition import sample_semantics
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import UncertainTrajectory
from repro.uncertainty.uniform import UniformDiskPDF

from .test_envelope_differential import (
    MULTI_SEGMENT_WINDOWS,
    fleets,
    multi_segment_fleets,
)

SAMPLES = 201
#: Decisions the definition makes by less than this are not held against
#: production: two float evaluations of one distance may differ that much.
MARGIN = 1e-7


def _without_jumps(mod: MovingObjectsDatabase) -> MovingObjectsDatabase:
    """The fleet with every zero-length leg made stationary.

    The shared strategies draw both samples of a repeated timestamp at
    random, so the vehicle jumps.  Production is wrong after such a jump
    (``test_jump_across_a_zero_length_leg`` below pins how), so the
    properties keep the repeated timestamps and drop the jumps.
    """
    rebuilt = []
    for trajectory in mod:
        samples = []
        for sample in trajectory.samples:
            if samples and sample.t == samples[-1][2]:
                samples.append((samples[-1][0], samples[-1][1], sample.t))
            else:
                samples.append((sample.x, sample.y, sample.t))
        rebuilt.append(
            UncertainTrajectory(
                trajectory.object_id, samples, trajectory.radius, trajectory.pdf
            )
        )
    return MovingObjectsDatabase(rebuilt)


def _far_from(times: np.ndarray, ends, step: float) -> np.ndarray:
    """Samples farther than one step from every time in ``ends``."""
    far = np.ones(times.size, dtype=bool)
    for end in ends:
        far &= np.abs(times - end) > step
    return far


def _sub_grid(times: np.ndarray, mismatch: np.ndarray, function) -> np.ndarray:
    """The mismatching samples in runs that fit between two production grid points.

    A band row is at most one piece of the candidate's distance function,
    sampled at ``_SAMPLES_PER_INTERVAL`` evenly spaced points.
    """
    tolerated = np.zeros_like(mismatch)
    indices = np.nonzero(mismatch)[0]
    for run in np.split(indices, np.nonzero(np.diff(indices) > 1)[0] + 1):
        if run.size:
            piece = function.piece_at(float(times[run[0]]))
            spacing = (piece.t_end - piece.t_start) / (_SAMPLES_PER_INTERVAL - 1)
            if times[run[-1]] - times[run[0]] < spacing:
                tolerated[run] = True
    return tolerated


def _check_nonzero_probability(mod, query_id, t_lo, t_hi):
    """nonzero_probability_intervals / UQ11 / UQ12 / UQ13 / UQ31."""
    context = QueryContext.from_mod(mod, query_id, t_lo, t_hi)
    oracle = sample_semantics(mod, query_id, t_lo, t_hi, samples=SAMPLES)
    assert context.band_width == pytest.approx(oracle.band_width)
    times = oracle.times
    step = (t_hi - t_lo) / (SAMPLES - 1)
    possible = oracle.possible_nn()
    decided = np.abs(oracle.slack()) > MARGIN

    robust_members = set()
    for row, object_id in enumerate(oracle.object_ids):
        intervals = context.nonzero_probability_intervals(object_id)
        ends = [end for interval in intervals for end in interval]
        inside = np.zeros(times.size, dtype=bool)
        for start, end in intervals:
            inside |= (times >= start) & (times <= end)
        checked = _far_from(times, ends, step) & decided[row]
        mismatch = checked & (inside != possible[row])
        missed = _sub_grid(times, mismatch, context.function_of(object_id))
        checked &= ~missed

        disagreements = times[mismatch & ~missed]
        assert disagreements.size == 0, (
            f"{object_id}: production intervals {intervals} disagree with the "
            f"definition at t={disagreements.tolist()}"
        )
        if possible[row][checked].any():
            robust_members.add(object_id)
            assert context.uq11_sometime(object_id)
        if not context.uq11_sometime(object_id):
            assert not possible[row][checked].any()
        if context.uq12_always(object_id):
            assert possible[row][checked].all()
        # Each interval end moves the sampled share by at most one sample.
        assert abs(
            context.uq13_fraction(object_id) - oracle.uq13_fraction(object_id)
        ) <= (len(ends) + missed.sum() + 2) / (SAMPLES - 1)

    produced = context.uq31_all_sometime()
    assert robust_members <= set(produced)
    for object_id in set(produced) - set(oracle.uq31_all_sometime()):
        # Only a member whose every interval fits between samples is
        # invisible to the definition.
        intervals = context.nonzero_probability_intervals(object_id)
        assert all(end - start <= 2.0 * step for start, end in intervals)
    return context, oracle


def _check_ranks(context, oracle, k):
    """ranking_at / UQ41 over the members both sides agree on."""
    if set(context.uq31_all_sometime()) != set(oracle.uq31_all_sometime()):
        return  # a sliver member shifts every rank below it
    times = oracle.times
    step = (context.t_end - context.t_start) / (SAMPLES - 1)
    levels = context.level_envelopes(k)
    pieces = [piece for level in levels.levels for piece in level.pieces]
    far = _far_from(
        times, {t for piece in pieces for t in (piece.t_start, piece.t_end)}, step
    )
    row_of = {object_id: row for row, object_id in enumerate(oracle.object_ids)}

    robust_top = set()
    for sample in np.nonzero(far)[0].tolist():
        ranking = oracle.ranking_at(sample)
        head = [oracle.distances[row_of[oid], sample] for oid in ranking[: k + 1]]
        # Coincident paths tie everywhere and production orders them by
        # rounding noise in their coefficients: a tie is not a decision.
        if np.any(np.diff(head) <= MARGIN):
            continue
        assert context.ranking_at(float(times[sample]), k) == ranking[:k]
        robust_top.update(ranking[:k])

    produced = context.uq41_all_rank_sometime(k)
    assert robust_top <= set(produced)
    for object_id in set(produced) - set(oracle.uq41_all_rank_sometime(k)):
        owned = sum(1 for piece in pieces if piece.object_id == object_id)
        ranked_time = context.uq23_rank_fraction(object_id, k) * context.duration
        assert ranked_time <= (2 * owned + 2) * step


class TestDefinitionOracle:
    @given(
        mod=fleets(),
        window=st.sampled_from([(0.0, 10.0), (1.0, 9.0), (2.5, 6.25)]),
        k=st.integers(min_value=1, max_value=3),
    )
    def test_single_leg_fleets(self, mod, window, k):
        mod = _without_jumps(mod)
        query_id = next(iter(mod.object_ids))
        context, oracle = _check_nonzero_probability(mod, query_id, *window)
        _check_ranks(context, oracle, k)

    @given(
        mod=multi_segment_fleets(),
        window=st.sampled_from(MULTI_SEGMENT_WINDOWS),
        query=st.integers(min_value=0, max_value=2),
        k=st.integers(min_value=1, max_value=3),
    )
    def test_multi_segment_fleets(self, mod, window, query, k):
        mod = _without_jumps(mod)
        context, oracle = _check_nonzero_probability(mod, f"o{query}", *window)
        _check_ranks(context, oracle, k)

    def test_the_oracle_sees_a_known_structure(self, tiny_mod):
        # Anti-vacuity: on the hand-built fleet the definition alone finds
        # the structure the fixture documents.
        oracle = sample_semantics(tiny_mod, "q", 0.0, 60.0, samples=SAMPLES)
        assert oracle.uq12_always("near")
        assert oracle.uq11_sometime("crossing") and not oracle.uq12_always("crossing")
        assert not oracle.uq11_sometime("far")
        assert oracle.uq31_all_sometime() == ["near", "crossing"]
        assert oracle.uq41_all_rank_sometime(1) == ["near", "crossing"]
        context, _ = _check_nonzero_probability(tiny_mod, "q", 0.0, 60.0)
        assert context.uq31_all_sometime() == ["near", "crossing"]

    @pytest.mark.xfail(
        strict=True,
        reason="difference functions take a piece's reference position from "
        "position_at(piece start), which at a jump is the leg *before* it "
        "(scalar builder and bulk kernel alike); left for a correctness PR",
    )
    def test_jump_across_a_zero_length_leg(self):
        # Found by this suite.  o2 sits on the query until t = 4, jumps one
        # mile away and drifts back by t = 10, so by definition it can be the
        # NN on [0, 4] and again once within 4r = 0.4 of the query, from
        # t = 7.6.  Production builds the leg after the jump from the position
        # before it and answers [0, 6.4].
        pdf = UniformDiskPDF(0.1)
        still = [(0.0, 0.0, 0.0), (0.0, 0.0, 10.0)]
        jumping = [(0.0, 0.0, 0.0), (0.0, 0.0, 4.0), (0.0, 1.0, 4.0), (0.0, 0.0, 10.0)]
        mod = MovingObjectsDatabase(
            UncertainTrajectory(object_id, samples, 0.1, pdf)
            for object_id, samples in [("o0", still), ("o1", still), ("o2", jumping)]
        )
        _check_nonzero_probability(mod, "o0", 0.0, 10.0)

    @pytest.mark.xfail(
        strict=True,
        reason="band crossings are bracketed on 12 grid points per row; an "
        "excursion into the band between two of them is not seen",
    )
    def test_graze_between_grid_points(self):
        # Found by this suite under the nightly profile.  On [5, 6] the query
        # sweeps past the parked o1 while o2 holds the envelope; o1 is within
        # the band for about 0.03 min around t = 5.58 (slack 0.006), between
        # the grid points 5.564 (o1's vertex) and 5.636.
        pdf = UniformDiskPDF(0.3)

        def parked_except(fifth, sixth):
            samples = [(0.0, 0.0, float(t)) for t in range(13)]
            samples[5], samples[6] = (*fifth, 5.0), (*sixth, 6.0)
            return samples

        mod = MovingObjectsDatabase(
            UncertainTrajectory(object_id, samples, 0.3, pdf)
            for object_id, samples in [
                ("o0", parked_except((0.0, -19.875), (12.78125, 9.875))),
                ("o1", [(0.0, 0.0, float(t)) for t in range(13)]),
                ("o2", parked_except((0.0, -14.0), (19.25, 15.125))),
            ]
        )
        oracle = sample_semantics(mod, "o0", 0.0, 12.0, samples=SAMPLES)
        assert oracle.possible_nn()[0, 93] and oracle.times[93] == pytest.approx(5.58)
        context = QueryContext.from_mod(mod, "o0", 0.0, 12.0)
        assert any(
            start <= 5.58 <= end
            for start, end in context.nonzero_probability_intervals("o1")
        )
