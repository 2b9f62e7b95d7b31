"""The columnar band pass against the per-candidate row loop, with ``==``.

:func:`repro.core.pruning.band_intervals_batch` builds every candidate's rows
from packed piece columns and decides most rows from closed-form bounds;
:func:`repro.reference.band.band_intervals_batch` cuts rows one candidate at a
time and samples every one of them.  Equal output on the inputs below — same
values, same element types, same exceptions — is the proof that the ragged
row builder reads what the scalar one reads and that the bounds are sound.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import pruning
from repro.core.pruning import _BOUNDARY_GUARD, band_intervals_batch, band_report, band_tally
from repro.engine import QueryEngine
from repro.geometry.envelope.divide_conquer import lower_envelope
from repro.geometry.envelope.hyperbola import DistanceFunction, Hyperbola, HyperbolaPiece
from repro.reference import band as reference
from repro.streaming import ContinuousMonitor
from repro.workloads.scenarios import multi_query_fleet, streaming_fleet

from ..conftest import make_linear_function, random_functions
from ..property.test_envelope_differential import adversarial_functions

T_LO, T_HI = 0.0, 10.0


def assert_identical(functions, envelope, band_width, t_lo=T_LO, t_hi=T_HI):
    """Production ``==`` reference, down to the Python types in the tuples."""
    produced = band_intervals_batch(functions, envelope, band_width, t_lo, t_hi)
    expected = reference.band_intervals_batch(functions, envelope, band_width, t_lo, t_hi)
    assert produced == expected
    for ours, theirs in zip(produced, expected):
        assert [tuple(map(type, span)) for span in ours] == [
            tuple(map(type, span)) for span in theirs
        ]
    return produced


def motion(x0, y0, vx, vy):
    return Hyperbola.from_relative_motion(x0, y0, vx, vy, T_LO)


def pieces_on(object_id, spans, curves):
    """A function with one curve on each explicit ``(start, end)`` span."""
    return DistanceFunction(
        object_id,
        [HyperbolaPiece(start, end, curve) for (start, end), curve in zip(spans, curves)],
    )


def piecewise(object_id, marks, curves):
    """A function that changes curve at each interior mark."""
    return pieces_on(object_id, list(zip(marks, marks[1:])), curves)


def spy_on_scalar_rows(monkeypatch):
    """Ids of the candidates production hands to ``_band_rows`` (the
    reference holds its own name for the builder and is not seen)."""
    seen = []
    original = pruning._band_rows
    monkeypatch.setattr(
        pruning,
        "_band_rows",
        lambda function, *rest: seen.append(function.object_id) or original(function, *rest),
    )
    return seen


def spy_on_grid(monkeypatch):
    """Row counts of production's sample grids."""
    sizes = []
    original = pruning._row_sample_grid
    monkeypatch.setattr(
        pruning,
        "_row_sample_grid",
        lambda lo, *rest: sizes.append(lo.size) or original(lo, *rest),
    )
    return sizes


@pytest.fixture(scope="module")
def city_windows():
    """Twenty cold windows of the mixed city fleet: (functions, envelope, band, lo, hi)."""
    mod, query_ids = multi_query_fleet(num_vehicles=2000, num_queries=4, seed=29)
    engine = QueryEngine(mod)
    windows = []
    for slot in range(5):
        lo = 7.0 + 15.5 * slot
        for query_id in query_ids:
            context = engine.prepare(query_id, lo, lo + 8.0).context
            windows.append(
                (list(context.functions.values()), context.envelope, context.band_width, lo, lo + 8.0)
            )
    return windows


@pytest.fixture(scope="module")
def streaming_windows():
    """The trailing window of every standing query after each batch: all
    candidates piecewise, on one report cadence."""
    scenario = streaming_fleet(num_vehicles=40, num_queries=3, num_batches=3)
    mod = scenario.mod
    monitor = ContinuousMonitor(mod)
    for object_id in mod.object_ids:
        monitor.track(
            object_id,
            max_speed=scenario.max_speed,
            minimum_radius=scenario.uncertainty_radius,
        )
    windows = []
    for batch in scenario.batches:
        for object_id, reports in batch.items():
            monitor.ingest(object_id, reports)
        monitor.apply()
        t_hi = mod.common_time_span()[1]
        engine = QueryEngine(mod)
        for query_id in scenario.query_ids:
            context = engine.prepare(query_id, t_hi - 5.0, t_hi).context
            windows.append(
                (list(context.functions.values()), context.envelope, context.band_width, t_hi - 5.0, t_hi)
            )
    return windows


class TestFleets:
    def test_city_fleet_windows(self, city_windows):
        assert len(city_windows) == 20
        bent = 0
        for functions, envelope, band_width, lo, hi in city_windows:
            bent += sum(1 for function in functions if function.breakpoints(lo, hi))
            assert_identical(functions, envelope, band_width, lo, hi)
        assert bent > 200  # both kinds of candidate, in the same batches

    def test_streaming_fleet_windows(self, streaming_windows):
        for functions, envelope, band_width, lo, hi in streaming_windows:
            assert all(function.breakpoints(lo, hi) for function in functions)
            assert_identical(functions, envelope, band_width, lo, hi)

    def test_columnar_path_engages(self, city_windows, streaming_windows):
        before = band_tally()
        for window in streaming_windows:
            band_intervals_batch(*window)
        assert band_report(before)["scalar"] == 0
        before = band_tally()
        for window in city_windows:
            band_intervals_batch(*window)
        report = band_report(before)
        assert report["scalar"] == 0
        assert report["bounded"] + report["refined"] == report["rows"]
        assert report["bounded"] >= 0.9 * report["rows"]


class TestRowBuilder:
    def functions(self):
        """Two crossing owners, a far single curve and clean piecewise candidates."""
        return [
            make_linear_function("left", 1.0, 0.0, 0.5, 0.0),
            make_linear_function("right", 6.0, 0.0, -0.5, 0.0),
            make_linear_function("far", 0.0, 30.0, 0.0, 0.0),
            piecewise("bent", [T_LO, 3.0, 7.0, T_HI], [
                motion(2.0, 3.0, 0.1, 0.0), motion(2.3, 3.0, 0.0, 0.2), motion(2.3, 4.4, -0.3, 0.1),
            ]),
        ]

    def test_candidate_that_owns_envelope_pieces(self, monkeypatch):
        # The owner's breakpoints split the base rows; as a candidate it
        # brings the same doubles again, and the merge must drop them.
        zigzag = piecewise("zigzag", [T_LO, 2.5, 6.0, T_HI], [
            motion(0.5, 0.0, 0.2, 0.0), motion(1.0, 0.0, -0.1, 0.1), motion(0.5, 0.6, 0.3, 0.0),
        ])
        functions = self.functions() + [zigzag]
        envelope = lower_envelope(functions, T_LO, T_HI)
        owned = envelope.pieces[0]
        assert owned.object_id == "zigzag" and owned.t_start < 2.5 < 6.0 < owned.t_end
        seen = spy_on_scalar_rows(monkeypatch)
        produced = assert_identical(functions, envelope, 1.5)
        assert not seen
        start, end = produced[-1][0]
        assert start == T_LO and end > owned.t_end  # inside wherever it owns

    def test_only_crowded_boundaries_reach_the_scalar_builder(self, monkeypatch):
        functions = self.functions()
        # Of the owners alone: built with the candidates below, the envelope
        # would snap its critical time onto the breakpoint that hugs it.
        envelope = lower_envelope(functions, T_LO, T_HI)
        critical = envelope.critical_times[1]
        assert T_LO < critical < T_HI
        curves = [motion(4.0, 4.0, 0.1, 0.1), motion(5.0, 5.0, -0.1, 0.0), motion(4.0, 5.0, 0.0, 0.1)]
        functions += [
            piecewise("hugs-critical", [T_LO, critical + _BOUNDARY_GUARD / 2.0, T_HI], curves),
            piecewise("twin-breaks", [T_LO, 4.0, 4.0 + _BOUNDARY_GUARD / 2.0, T_HI], curves),
            piecewise("hugs-start", [T_LO, T_LO + _BOUNDARY_GUARD / 2.0, T_HI], curves),
            piecewise("clear", [T_LO, critical + 3.0 * _BOUNDARY_GUARD, 8.0, T_HI], curves),
        ]
        seen = spy_on_scalar_rows(monkeypatch)
        before = band_tally()
        assert_identical(functions, envelope, 2.0)
        assert seen == ["hugs-critical", "twin-breaks", "hugs-start"]
        assert band_report(before)["scalar"] == 3

    def test_function_that_starts_late_raises_what_the_row_loop_raises(self):
        functions = self.functions()
        envelope = lower_envelope(functions, T_LO, T_HI)
        rests = motion(3.0, 3.0, 0.0, 0.0)
        late = DistanceFunction("late", [HyperbolaPiece(6.0, T_HI, rests)])
        with pytest.raises(ValueError) as expected:
            reference.band_intervals_batch(functions + [late], envelope, 2.0, T_LO, T_HI)
        with pytest.raises(ValueError) as raised:
            band_intervals_batch(functions + [late], envelope, 2.0, T_LO, T_HI)
        assert str(raised.value) == str(expected.value)
        # One whose rows' midpoints it still covers is served, by the scalar builder.
        for start in (1.0, T_LO + 5e-10):
            barely = DistanceFunction("barely", [HyperbolaPiece(start, T_HI, rests)])
            assert_identical(functions + [barely], envelope, 2.0)

    @pytest.mark.parametrize("distance", [1.0, 40.0], ids=["owner", "candidate"])
    def test_gapped_overlapping_and_zero_length_pieces(self, distance):
        # At distance 1 the odd function owns the envelope; at 40 it is a
        # candidate far outside the band of the others.
        one, two = motion(distance, 0.0, 0.0, 0.02), motion(distance, 0.2, 0.01, 0.0)
        odd = {
            "gapped": pieces_on("odd", [(T_LO, 4.0), (4.5, T_HI)], [one, two]),
            "overlapping": pieces_on("odd", [(T_LO, 4.0 + 5e-10), (4.0, T_HI)], [one, two]),
            "zero-length": pieces_on("odd", [(T_LO, 4.0), (4.0, 4.0), (4.0, T_HI)], [one, two, two]),
            "gap past the window": pieces_on(
                "odd", [(T_LO, 9.0), (T_HI + 1.0, T_HI + 2.0)], [one, two]
            ),
        }
        for function in odd.values():
            functions = self.functions() + [function]
            envelope = lower_envelope(functions, T_LO, T_HI)
            for band_width in (0.0, 1.5, 45.0):
                assert_identical(functions, envelope, band_width)

    def test_short_and_degenerate_windows(self):
        functions = self.functions()
        envelope = lower_envelope(functions, T_LO, T_HI)
        for t_lo, t_hi in [(4.0, 4.0), (4.0, 4.0 + 5e-10), (4.0, 4.0 + 3e-9), (2.0, 9.0)]:
            assert_identical(functions, envelope, 1.5, t_lo, t_hi)

    def test_one_function_and_none(self):
        functions = self.functions()
        envelope = lower_envelope(functions, T_LO, T_HI)
        for function in functions:
            assert_identical([function], envelope, 1.5)
        assert band_intervals_batch([], envelope, 1.5, T_LO, T_HI) == []

    @pytest.mark.parametrize("seed", [3, 11])
    def test_zero_band(self, seed, crossing_functions):
        rng = np.random.default_rng(seed)
        functions = crossing_functions + random_functions(12, rng) + self.functions()
        envelope = lower_envelope(functions, T_LO, T_HI)
        produced = assert_identical(functions, envelope, 0.0)
        assert any(produced)


class TestBounds:
    """The closed-form bounds may only decide rows no sample could contradict."""

    def still(self, object_id, distance):
        return make_linear_function(object_id, distance, 0.0, 0.0, 0.0)

    def test_excursions_shallower_than_the_slack_reach_the_grid(self, monkeypatch):
        # The envelope rests at distance 2 and the band is 1 wide: a function
        # resting within rounding of 3 is in or out by less than the bounds
        # can tell, one a clear step away is decided without a sample.
        shallow = [3.0 - 1e-14, 3.0 + 1e-14, 3.0, 3.0 - 4e-16, 3.0 + 4e-16]
        clear = [3.0 - 1e-6, 3.0 + 1e-6, 2.5, 9.0]
        functions = [self.still("owner", 2.0)]
        functions += [self.still(f"shallow-{k}", d) for k, d in enumerate(shallow)]
        functions += [self.still(f"clear-{k}", d) for k, d in enumerate(clear)]
        envelope = lower_envelope(functions, T_LO, T_HI)
        sizes = spy_on_grid(monkeypatch)
        before = band_tally()
        assert_identical(functions, envelope, 1.0)
        assert sizes == [len(shallow)]
        report = band_report(before)
        assert (report["bounded"], report["refined"]) == (1 + len(clear), len(shallow))

    @pytest.mark.parametrize(
        "depth, sampled",
        [(1e-4, [2]), (1e-9, [2]), (1e-13, [2]), (-1e-13, [2]), (-1e-9, [])],
    )
    def test_dips_into_and_out_of_the_band(self, depth, sampled, monkeypatch):
        # A fly-by whose closest approach is `depth` inside the band's edge,
        # and one resting inside that bulges out by as much mid-window.  A
        # negative depth is no excursion: the bounds may say so only when it
        # is deeper than their slack.
        dips = DistanceFunction(
            "dips", [HyperbolaPiece(T_LO, T_HI, Hyperbola(1.0, -10.0, 25.0 + (3.0 - depth) ** 2))]
        )
        bulges = DistanceFunction(
            "bulges", [HyperbolaPiece(T_LO, T_HI, Hyperbola(-1e-3, 1e-2, (3.0 + depth) ** 2 - 0.025))]
        )
        functions = [self.still("owner", 2.0), dips, bulges, self.still("far", 20.0)]
        envelope = lower_envelope(functions, T_LO, T_HI)
        sizes = spy_on_grid(monkeypatch)
        assert_identical(functions, envelope, 1.0)
        assert sizes == sampled

    def test_near_zero_distances(self):
        # Squared distances that cancel to rounding: the clipped square root
        # turns 1e-16 of the terms into 1e-8 of distance.
        graze = DistanceFunction(
            "graze", [HyperbolaPiece(T_LO, T_HI, Hyperbola(4.0, -40.0, 100.0))]
        )
        near = DistanceFunction(
            "near", [HyperbolaPiece(T_LO, T_HI, Hyperbola(4.0, -40.0, 100.0 + 1e-13))]
        )
        functions = [graze, near, self.still("rest", 1e-7), self.still("far", 5.0)]
        envelope = lower_envelope(functions, T_LO, T_HI)
        for band_width in (0.0, 1e-9, 1e-7, 1e-3):
            assert_identical(functions, envelope, band_width)


class TestProperty:
    @given(
        functions=adversarial_functions().flatmap(st.permutations),
        band_width=st.floats(min_value=0.0, max_value=12.0),
    )
    def test_permuted_adversarial_functions(self, functions, band_width):
        envelope = lower_envelope(functions, T_LO, T_HI)
        assert_identical(functions, envelope, band_width)
