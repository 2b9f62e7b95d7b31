"""Differential oracle: production kernels are bit-identical to their references.

Every vectorized kernel of the envelope hot path —

* the kinetic front behind the lower envelope and every k-level
  (:func:`repro.geometry.envelope.bulk.front_envelopes`), and the ``LE_Alg``
  it runs on dirty slabs, which skips halves buried under their sibling
  (:func:`repro.geometry.envelope.divide_conquer.le_alg`),
* the batched band classifier (:func:`repro.core.pruning.band_intervals_batch`), and
* the bulk hyperbola-coefficient construction
  (:func:`repro.trajectories.difference.difference_function_pack`)

— has its original scalar implementation pinned as the oracle
(the plain recursion and cascade of :mod:`repro.reference.envelope`,
:func:`repro.reference.band.band_intervals_batch`, the per-candidate
:func:`repro.trajectories.difference.difference_distance_function`) and promises *bit-identical*
output: not approximately equal, byte-for-byte the same floats, piece
boundaries, and owner ids.  These properties drive both sides with
adversarial inputs (tangent hyperbolas, exact ties at breakpoints,
sub-tolerance gaps, zero-length segments, coincident trajectories, copies
of a cluster lifted above it) and
compare with ``==``, never with a tolerance.

The closing end-to-end section runs planned UQ2x/UQ4x statements on the
production kernels against the pinned naive interpreter rerouted onto the
references (the ``reference_kernels`` fixture), so the equivalence is
checked through the full planner/engine stack, not just at the kernel
boundary.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core import pruning
from repro.core.pruning import band_intervals, band_intervals_batch
from repro.core.queries import QueryContext
from repro.core.tolerances import TIME_TOLERANCE
from repro.geometry.envelope import divide_conquer
from repro.geometry.envelope.bulk import (
    front_report,
    front_tally,
    k_level_envelopes_bulk,
)
from repro.geometry.envelope.divide_conquer import lower_envelope
from repro.geometry.envelope.env2 import pairwise_envelope
from repro.geometry.envelope.hyperbola import (
    DistanceFunction,
    Hyperbola,
    HyperbolaPiece,
)
from repro.geometry.envelope import klevel
from repro.geometry.envelope.klevel import k_level_envelopes
from repro.reference import band as reference
from repro.reference.envelope import exclusion_cascade, le_alg
from repro.streaming import ContinuousMonitor
from repro.trajectories import difference
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import UncertainTrajectory
from repro.uncertainty.uniform import UniformDiskPDF
from repro.query_language import QueryExecutor, execute_query_naive
from repro.workloads.scenarios import (
    convoy_with_stragglers,
    multi_query_fleet,
    streaming_fleet,
)

T_LO, T_HI = 0.0, 10.0

coordinate = st.floats(
    min_value=-25.0, max_value=25.0, allow_nan=False, allow_infinity=False
)
velocity = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
)
# Exactly-representable offsets so algebraic identities (double roots,
# shared breakpoints) survive float arithmetic without rounding.
dyadic_time = st.sampled_from([1.0, 2.0, 2.5, 4.0, 5.0, 6.25, 8.0])


def _motion(object_id, x0, y0, vx, vy):
    return DistanceFunction.single_segment(object_id, x0, y0, vx, vy, T_LO, T_HI)


# ---------------------------------------------------------------------------
# Adversarial function families.
# ---------------------------------------------------------------------------


@st.composite
def base_functions(draw, min_size=2, max_size=6):
    """Random single-segment distance functions with canonical-sortable ids."""
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    functions = []
    for index in range(count):
        x0, y0 = draw(coordinate), draw(coordinate)
        vx, vy = draw(velocity), draw(velocity)
        functions.append(_motion(f"f{index:02d}", x0, y0, vx, vy))
    return functions


@st.composite
def adversarial_functions(draw):
    """Function sets stressing the degeneracies the kernels must survive.

    Families:

    * ``plain`` — generic position: random crossing hyperbolas.
    * ``tangent`` — ``g = f + (t - q)^2`` for dyadic ``q``: the difference
      quadratic has an exact double root at ``t = q`` (discriminant is
      bitwise zero), probing the tangency guards.
    * ``tie`` — ``g = f + s (t - r1)(t - r2)``: exact crossings at the
      drawn dyadic times, landing breakpoints on top of each other.
    * ``subtol`` — a function rebuilt with an interior piece shorter than
      the time tolerance (a sub-tolerance gap between breakpoints).
    * ``zero`` — a function carrying an exactly zero-length piece.
    * ``coincident`` — a function duplicated under a different id: the
      curves tie everywhere and only input order breaks the tie.
    * ``convoy`` — 10 to 20 collinear, equally spaced objects sharing one
      velocity: the query crosses the bisector of members ``i`` and ``j``
      at one time for every pair with the same ``i + j``, so crossings far
      above the front land within rounding of the front's own events.
    """
    functions = draw(base_functions())
    family = draw(
        st.sampled_from(
            ["plain", "tangent", "tie", "subtol", "zero", "coincident", "convoy"]
        )
    )
    first = functions[0]
    curve = first.pieces[0].curve
    if family == "tangent":
        q = draw(dyadic_time)
        tangent = Hyperbola(curve.a + 1.0, curve.b - 2.0 * q, curve.c + q * q)
        functions.append(
            DistanceFunction("t-tan", [HyperbolaPiece(T_LO, T_HI, tangent)])
        )
    elif family == "tie":
        r1 = draw(dyadic_time)
        r2 = draw(dyadic_time)
        s = draw(st.sampled_from([0.5, 1.0, 2.0]))
        crossing = Hyperbola(
            curve.a + s, curve.b - s * (r1 + r2), curve.c + s * r1 * r2
        )
        functions.append(
            DistanceFunction("t-tie", [HyperbolaPiece(T_LO, T_HI, crossing)])
        )
    elif family == "subtol":
        tb = draw(dyadic_time)
        sliver = 5e-10  # below TIME_TOLERANCE
        functions.append(
            DistanceFunction(
                "t-sub",
                [
                    HyperbolaPiece(T_LO, tb, curve),
                    HyperbolaPiece(tb, tb + sliver, curve),
                    HyperbolaPiece(tb + sliver, T_HI, curve),
                ],
            )
        )
    elif family == "zero":
        tb = draw(dyadic_time)
        functions.append(
            DistanceFunction(
                "t-zero",
                [
                    HyperbolaPiece(T_LO, tb, curve),
                    HyperbolaPiece(tb, tb, curve),
                    HyperbolaPiece(tb, T_HI, curve),
                ],
            )
        )
    elif family == "coincident":
        functions.append(DistanceFunction("t-coi", list(first.pieces)))
    elif family == "convoy":
        x0, y0 = draw(coordinate), draw(coordinate)
        vx, vy = draw(velocity), draw(velocity)
        step = st.sampled_from([-0.6, -0.3, 0.3, 0.6])
        dx, dy = draw(step), draw(step)
        for member in range(draw(st.integers(min_value=10, max_value=20))):
            functions.append(
                _motion(f"t-cv{member:02d}", x0 + member * dx, y0 + member * dy, vx, vy)
            )
    return functions


@st.composite
def buried_functions(draw):
    """``buried`` — a low cluster and copies of it lifted far above it.

    The cluster is two to six random motions plus a row touching the first
    at a dyadic time (an exact or near tangency).  Each copy adds one
    constant to every member's ``c``, and 0, 1e-9 or 1e-6 to every other
    member's: copies cross one another at the cluster's own crossing times,
    or within rounding of them — critical times of a half ``le_alg`` skips,
    landing on the envelope of the half it keeps.  64 rows or more.
    """
    cluster = draw(base_functions(min_size=2, max_size=6))
    curve = cluster[0].pieces[0].curve
    q = draw(dyadic_time)
    nudge = draw(st.sampled_from([0.0, 1e-12, 1e-9]))
    tangent = Hyperbola(curve.a + 1.0, curve.b - 2.0 * q, curve.c + q * q + nudge)
    cluster.append(DistanceFunction("t-tan", [HyperbolaPiece(T_LO, T_HI, tangent)]))
    lift = draw(st.sampled_from([1e4, 1e5, 1e6]))
    copies = -(-64 // len(cluster)) - 1 + draw(st.integers(min_value=0, max_value=2))
    functions = list(cluster)
    for copy in range(1, copies + 1):
        shake = draw(st.sampled_from([0.0, 1e-9, 1e-6]))
        for member, function in enumerate(cluster):
            a, b, c = (lambda h: (h.a, h.b, h.c))(function.pieces[0].curve)
            lifted = Hyperbola(a, b, c + lift * copy + shake * (member % 2))
            functions.append(
                DistanceFunction(
                    f"c{copy:02d}-{function.object_id}", [HyperbolaPiece(T_LO, T_HI, lifted)]
                )
            )
    return functions


def _canonical(functions):
    """The canonical order every kernel layer sorts into."""
    return sorted(functions, key=lambda f: str(f.object_id))


# ---------------------------------------------------------------------------
# Bit-identity helpers — every comparison is exact, never a tolerance.
# ---------------------------------------------------------------------------


def assert_identical_envelopes(vectorized, scalar):
    assert len(vectorized.pieces) == len(scalar.pieces)
    for left, right in zip(vectorized.pieces, scalar.pieces):
        assert left.object_id == right.object_id
        assert left.t_start == right.t_start
        assert left.t_end == right.t_end


def assert_identical_functions(vectorized, scalar):
    assert vectorized.object_id == scalar.object_id
    assert len(vectorized.pieces) == len(scalar.pieces)
    for left, right in zip(vectorized.pieces, scalar.pieces):
        assert left.t_start == right.t_start
        assert left.t_end == right.t_end
        assert left.curve.a == right.curve.a
        assert left.curve.b == right.curve.b
        assert left.curve.c == right.curve.c


# ---------------------------------------------------------------------------
# Envelope and k-level kernels.
# ---------------------------------------------------------------------------


class TestEnvelopeKernels:
    @given(functions=adversarial_functions())
    def test_lower_envelope_bit_identical(self, functions):
        vectorized = k_level_envelopes(functions, T_LO, T_HI, max_levels=1)
        scalar = lower_envelope(_canonical(functions), T_LO, T_HI)
        assert_identical_envelopes(vectorized.level(1), scalar)

    @given(
        x0=coordinate, y0=coordinate, vx=velocity, vy=velocity, q=dyadic_time
    )
    def test_pairwise_envelope_bit_identical(self, x0, y0, vx, vy, q):
        first = _motion("a", x0, y0, vx, vy)
        tangent = Hyperbola(
            first.pieces[0].curve.a + 1.0,
            first.pieces[0].curve.b - 2.0 * q,
            first.pieces[0].curve.c + q * q,
        )
        second = DistanceFunction("b", [HyperbolaPiece(T_LO, T_HI, tangent)])
        vectorized = k_level_envelopes([first, second], T_LO, T_HI, max_levels=1)
        scalar = pairwise_envelope(first, second, T_LO, T_HI)
        assert_identical_envelopes(vectorized.level(1), scalar)

    @given(
        functions=adversarial_functions(),
        max_levels=st.integers(min_value=1, max_value=4),
    )
    def test_k_level_stack_bit_identical(self, functions, max_levels):
        vectorized = k_level_envelopes(
            functions, T_LO, T_HI, max_levels=max_levels
        )
        scalar = exclusion_cascade(functions, T_LO, T_HI, max_levels=max_levels)
        assert len(vectorized) == len(scalar)
        for level in range(1, len(scalar) + 1):
            assert_identical_envelopes(
                vectorized.level(level), scalar.level(level)
            )

    @given(functions=adversarial_functions().flatmap(st.permutations))
    def test_production_lower_envelope_bit_identical_in_input_order(self, functions):
        # The entry every caller imports, ties broken by *input* order as
        # LE_Alg breaks them.  Small sets normally skip the front; here
        # they must not, or the families above would never reach it.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(divide_conquer, "_FRONT_MIN_PIECES", 1)
            vectorized = lower_envelope(functions, T_LO, T_HI)
        assert_identical_envelopes(vectorized, le_alg(functions, T_LO, T_HI))

    def test_buried_subtrees_are_skipped_only_when_certified(self, monkeypatch):
        # Every production entry equals the plain recursion on the buried
        # family, and across its examples LE_Alg both skipped a half and had
        # the certificate refuse one (the family is not vacuous).
        verdicts = []
        certifies = divide_conquer._Burial.certifies
        monkeypatch.setattr(
            divide_conquer._Burial,
            "certifies",
            lambda *args: verdicts.append(certifies(*args)) or verdicts[-1],
        )

        @given(functions=buried_functions(), max_levels=st.integers(min_value=1, max_value=3))
        def check(functions, max_levels):
            assert len(functions) >= 64
            expected = le_alg(functions, T_LO, T_HI)
            assert_identical_envelopes(divide_conquer.le_alg(functions, T_LO, T_HI), expected)
            assert_identical_envelopes(lower_envelope(functions, T_LO, T_HI), expected)
            levels = k_level_envelopes(functions, T_LO, T_HI, max_levels=max_levels)
            scalar = exclusion_cascade(functions, T_LO, T_HI, max_levels=max_levels)
            assert len(levels) == len(scalar)
            for level in range(1, len(scalar) + 1):
                assert_identical_envelopes(levels.level(level), scalar.level(level))

        check()
        assert True in verdicts, "LE_Alg never skipped a buried half"
        assert False in verdicts, "the certificate never refused a skip"

    def test_a_window_with_two_dirty_slabs_is_served(self):
        # Two exact tangencies with the level-1 owner, at t = 2.5 and 7.5:
        # two dirty slabs, each run by LE_Alg, with clean front between and
        # around them (the owner's breakpoints at 1 and 5 end its steps
        # there).  The front once refused such a window as a whole.
        low = Hyperbola(0.0, 0.0, 0.25)
        functions = [
            DistanceFunction(
                "t-low",
                [HyperbolaPiece(s, e, low) for s, e in ((T_LO, 1.0), (1.0, 5.0), (5.0, T_HI))],
            )
        ] + [
            DistanceFunction(
                f"t-tan{q}",
                [HyperbolaPiece(T_LO, T_HI, Hyperbola(1.0, -2.0 * q, 0.25 + q * q))],
            )
            for q in (2.5, 7.5)
        ] + [
            _motion(f"far{index:02d}", 20.0 + index, 30.0 - index, 0.1, -0.1)
            for index in range(64)
        ]
        before = front_tally()
        served = lower_envelope(functions, T_LO, T_HI)
        report = front_report(before)
        assert report["dirty_slabs"] == 2 and report["clean_slabs"] == 3
        assert 0.0 < report["slab_rows_share"] < 0.5
        assert_identical_envelopes(served, le_alg(functions, T_LO, T_HI))

    @given(
        others=base_functions(min_size=2, max_size=5),
        q=dyadic_time,
        max_levels=st.integers(min_value=2, max_value=4),
    )
    def test_stitched_slab_equals_the_whole_window_cascade(
        self, others, q, max_levels
    ):
        # One genuine near-tangency at the top of the arrangement, mid
        # window: "t-low" keeps distance 0.5 and "t-tan" touches it at q
        # (an exact double root), both below everything else around q.
        low = Hyperbola(0.0, 0.0, 0.25)
        functions = [
            DistanceFunction("t-low", [HyperbolaPiece(T_LO, T_HI, low)]),
            DistanceFunction(
                "t-tan",
                [HyperbolaPiece(T_LO, T_HI, Hyperbola(1.0, -2.0 * q, 0.25 + q * q))],
            ),
        ] + [
            _motion(f.object_id, 8.0 + abs(x0), 8.0 + abs(y0), 0.0, 0.0)
            for f, (x0, y0) in zip(
                others, [(f.value(0.0), f.value(10.0)) for f in others]
            )
        ]
        scalar = exclusion_cascade(functions, T_LO, T_HI, max_levels=max_levels)
        slabs = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                klevel,
                "exclusion_cascade",
                lambda fs, s, e, k: slabs.append((s, e))
                or exclusion_cascade(fs, s, e, k),
            )
            stitched = k_level_envelopes_bulk(
                _canonical(functions), T_LO, T_HI, max_levels
            )
        # The scalar ran, on the slab around the tangency and nowhere else.
        assert len(slabs) == 1
        ((start, end),) = slabs
        assert start <= q <= end and end - start < T_HI - T_LO
        assert end - start <= q - T_LO + 2e-3 or start > T_LO
        assert len(stitched) == len(scalar)
        for level, reference in zip(stitched, scalar.levels):
            assert_identical_envelopes(level, reference)

    @pytest.mark.parametrize("seed", [100, 101, 611816])
    def test_convoy_crossings_that_coincide_above_the_front(self, seed):
        # Twenty collinear, equally spaced vehicles at one velocity: a
        # straggler crosses the bisectors of members 5 and 6, 4 and 7, 3 and
        # 8, ... at mathematically the same time, the computed roots 4e-13
        # apart.  LE_Alg deduplicates the breakpoints of its sub-envelopes by
        # tolerance, so the time it reports for the hand-over between 5 and 6
        # can be the root of 4 and 7 — two functions that own nothing there.
        mod = convoy_with_stragglers(convoy_size=20, straggler_count=12, seed=seed)
        for straggler in range(12):
            functions = mod.distance_functions(f"straggler-{straggler}", 0.0, 60.0)
            for max_levels in (2, 3):
                levels = k_level_envelopes(functions, 0.0, 60.0, max_levels=max_levels)
                scalar = exclusion_cascade(functions, 0.0, 60.0, max_levels=max_levels)
                for level in range(1, len(scalar) + 1):
                    assert_identical_envelopes(levels.level(level), scalar.level(level))

    def test_city_fleet_windows_need_no_scalar_slab(self):
        # Windows shaped like the rank_sweep workload's: the benchmark's
        # world (seed 29), 12 minutes, band survivors, three levels.  The
        # all-pairs sweep refused two in three of them outright.
        mod, query_ids = multi_query_fleet(
            num_vehicles=400, num_queries=10, shift_minutes=90.0, seed=29
        )
        clean = windows = 0
        for position, query_id in enumerate(query_ids):
            for start in (7.0 + 3.1 * position, 41.0 + 2.3 * position):
                context = QueryContext.from_mod(mod, query_id, start, start + 12.0)
                survivors = context.survivors()
                before = front_tally()
                levels = k_level_envelopes(survivors, start, start + 12.0, max_levels=3)
                report = front_report(before)
                scalar = exclusion_cascade(survivors, start, start + 12.0, max_levels=3)
                for level in range(1, len(scalar) + 1):
                    assert_identical_envelopes(levels.level(level), scalar.level(level))
                windows += 1
                clean += report["dirty_slabs"] == 0
        assert windows == 20
        assert clean >= 0.9 * windows, f"only {clean} of {windows} windows were clean"

    def test_kinetic_sweep_engages_without_fallback(self):
        # A well-conditioned arrangement must be served by the sweep
        # itself: k_level_envelopes_bulk raising DegenerateArrangement
        # here would mean the sweep silently degenerated into the
        # exclusion cascade for ordinary inputs.  (The shared
        # crossing_functions fixture is unsuitable: all three of its
        # crossings land at exactly t = 5, a genuine degeneracy.)
        functions = [
            _motion("a", 1.0, 0.0, 0.8, 0.0),
            _motion("b", 9.0, 0.0, -0.9, 0.0),
            _motion("c", 0.0, 5.0, 0.0, 0.0),
        ]
        ordered = _canonical(functions)
        levels = k_level_envelopes_bulk(ordered, T_LO, T_HI, len(ordered))
        scalar = exclusion_cascade(functions, T_LO, T_HI)
        assert len(levels) == len(scalar)
        for index, level in enumerate(levels, start=1):
            assert_identical_envelopes(level, scalar.level(index))


# ---------------------------------------------------------------------------
# Band-interval kernel.
# ---------------------------------------------------------------------------


class TestBandKernel:
    @given(
        functions=adversarial_functions(),
        band_width=st.sampled_from([0.5, 2.0, 8.0]),
    )
    def test_band_intervals_batch_bit_identical(self, functions, band_width):
        envelope = lower_envelope(functions, T_LO, T_HI)
        vectorized = band_intervals_batch(
            functions, envelope, band_width, T_LO, T_HI
        )
        scalar = reference.band_intervals_batch(
            functions, envelope, band_width, T_LO, T_HI
        )
        assert vectorized == scalar

    @given(functions=base_functions(min_size=3, max_size=6))
    def test_single_call_matches_batch_row(self, functions):
        envelope = lower_envelope(functions, T_LO, T_HI)
        batch = band_intervals_batch(functions, envelope, 2.0, T_LO, T_HI)
        oracle = reference.band_intervals_batch(functions, envelope, 2.0, T_LO, T_HI)
        for position, function in enumerate(functions):
            single = band_intervals(function, envelope, 2.0, T_LO, T_HI)
            assert single == batch[position]
            alone = reference.band_intervals_batch(
                [function], envelope, 2.0, T_LO, T_HI
            )
            assert alone == [oracle[position]]

    def test_vector_fast_path_engages(self, crossing_functions, monkeypatch):
        # Single-curve candidates over a well-separated envelope must be
        # classified by the batched rows, not the per-candidate fallback.
        envelope = lower_envelope(crossing_functions, T_LO, T_HI)
        scalar = reference.band_intervals_batch(
            crossing_functions, envelope, 2.0, T_LO, T_HI
        )
        calls = []
        original = pruning._band_rows
        monkeypatch.setattr(
            pruning,
            "_band_rows",
            lambda *args: calls.append(args) or original(*args),
        )
        vectorized = band_intervals_batch(
            crossing_functions, envelope, 2.0, T_LO, T_HI
        )
        assert vectorized == scalar
        assert not calls, "batched band kernel fell back to _band_rows"


class TestBandArrayTail:
    """The array tail of the band pass (root deduplication, sub-intervals,
    run merging) on the cases the reference settles one root, one row or
    one interval at a time; several passes share one call, as the engine
    runs them."""

    @staticmethod
    def assert_many_identical(passes):
        produced = [band.lists() for band in pruning.band_intervals_many(passes)]
        expected = reference.band_intervals_many(passes)
        assert produced == expected
        for ours, theirs in zip(produced, expected):
            assert [[tuple(map(type, span)) for span in spans] for spans in ours] == [
                [tuple(map(type, span)) for span in spans] for spans in theirs
            ]
        return produced

    @staticmethod
    def chained_roots(monkeypatch):
        """Per call, the most roots one row had within ``TIME_TOLERANCE`` of
        their predecessor in a row, in a row (a chain of ``n`` close roots
        counts ``n - 1``)."""
        longest = []
        original = pruning._bisect_brackets

        def spy(*args):
            rows, roots = original(*args)
            best = run = 0
            pairs = sorted(zip(rows.tolist(), roots.tolist()))
            for (row, root), (before_row, before) in zip(pairs[1:], pairs):
                run = run + 1 if row == before_row and root - before <= TIME_TOLERANCE else 0
                best = max(best, run)
            longest.append(best)
            return rows, roots

        monkeypatch.setattr(pruning, "_bisect_brackets", spy)
        return longest

    def test_roots_chained_closer_than_the_tolerance(self, monkeypatch):
        # A twin of the envelope owner with no band has a gap of exactly
        # zero at every sample: on windows a few tolerances long every
        # interior sample is a root within the tolerance of the next.
        longest = self.chained_roots(monkeypatch)
        passes = []
        for length in (2.5e-9, 5e-9, 1.2e-8):
            twins = [
                DistanceFunction.single_segment(name, 1.0, 2.0, 0.5, -0.25, 0.0, 1.0)
                for name in ("owner", "twin")
            ]
            envelope = lower_envelope(twins, 0.0, length)
            passes.append((twins, envelope, 0.0, 0.0, length))
        self.assert_many_identical(passes)
        assert longest and longest[0] >= 2

    def test_a_crossing_row_whose_pieces_are_all_slivers(self):
        # A steep candidate crosses ``envelope + band`` halfway through a
        # window 1.5 tolerances long: both pieces of the row are slivers.
        length = 1.5 * TIME_TOLERANCE
        owner = DistanceFunction.single_segment("owner", 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        steep = DistanceFunction.single_segment("steep", 1.2, 0.0, 0.6 / length, 0.0, 0.0, 1.0)
        envelope = lower_envelope([owner, steep], 0.0, length)
        bands = self.assert_many_identical([
            ([owner, steep], envelope, 0.5, 0.0, length),
            ([steep], envelope, 0.5, 0.0, length),
        ])
        assert bands[0][1] == [] and bands[0][0]

    def test_runs_that_join_within_the_merge_gap(self):
        # A fast pass dips the envelope under ``3 - 1.5`` for about 5e-8:
        # the constant candidate leaves the band for less than the 1e-7
        # merge gap, so its pieces on either side are one interval.
        speed, closest = 4.5e7, 5e-7
        dip = DistanceFunction.single_segment("dip", -speed * closest, 1.0, speed, 0.0, 0.0, 1.0)
        steady = DistanceFunction.single_segment("steady", 3.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        passes = []
        for t_hi in (1e-6, 2e-6):
            envelope = lower_envelope([dip, steady], 0.0, t_hi)
            passes.append(([dip, steady], envelope, 1.5, 0.0, t_hi))
        produced = self.assert_many_identical(passes)
        for band in produced:
            assert len(band[1]) == 1

    def test_an_owner_with_crossings_and_no_inside_row(self):
        # One row for the whole window; the passer is inside the band only
        # between its two crossings.
        owner = _motion("owner", 1.0, 0.0, 0.0, 0.0)
        passer = _motion("passer", -6.0, 1.2, 1.2, 0.0)
        envelope = lower_envelope([owner, passer], T_LO, T_HI)
        produced = self.assert_many_identical([
            ([owner, passer], envelope, 0.5, T_LO, T_HI),
            ([passer], envelope, 0.5, 2.0, 8.0),
        ])
        for band in produced:
            assert len(band[-1]) == 1 and band[-1][0][0] > T_LO

    def test_passes_with_no_undecided_row(self, monkeypatch):
        # The owner is inside and the far candidate outside by the bounds
        # alone; alone, such a pass samples nothing.
        owner = _motion("owner", 1.0, 0.0, 0.0, 0.0)
        far = _motion("far", 40.0, 0.0, 0.0, 0.0)
        passer = _motion("passer", -6.0, 1.2, 1.2, 0.0)
        envelope = lower_envelope([owner, far], T_LO, T_HI)
        decided = ([owner, far], envelope, 0.5, T_LO, T_HI)
        calls = self.chained_roots(monkeypatch)
        self.assert_many_identical([decided])
        assert calls == []
        crossing = lower_envelope([owner, passer], T_LO, T_HI)
        self.assert_many_identical([
            decided, ([owner, passer], crossing, 0.5, T_LO, T_HI), decided, ([], envelope, 0.5, T_LO, T_HI),
        ])


# ---------------------------------------------------------------------------
# Bulk difference-function construction.
# ---------------------------------------------------------------------------

SAMPLE_TIMES = (0.0, 4.0, 10.0)


@st.composite
def fleets(draw, min_size=3, max_size=6):
    """Fleets with zero-length legs, edge samples, and coincident twins."""
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    radius = draw(st.sampled_from([0.1, 0.4]))
    pdf = UniformDiskPDF(radius)
    trajectories = []
    for index in range(count):
        style = draw(
            st.sampled_from(["plain", "plain", "dup", "edge", "outside"])
        )
        if style == "dup":
            # A duplicated timestamp: a zero-length leg mid-trajectory.
            times = (0.0, 4.0, 4.0, 10.0)
        elif style == "edge":
            # Samples landing exactly on the window boundaries.
            times = (0.0, 0.0, 10.0)
        elif style == "outside":
            times = (-5.0, 5.0, 15.0)
        else:
            times = SAMPLE_TIMES
        samples = [
            (draw(coordinate), draw(coordinate), t) for t in times
        ]
        trajectories.append(
            UncertainTrajectory(f"o{index}", samples, radius, pdf)
        )
    if draw(st.booleans()):
        # A coincident twin of the first trajectory under another id.
        twin = trajectories[0]
        trajectories.append(
            UncertainTrajectory(
                "o-twin",
                [(s.x, s.y, s.t) for s in twin.samples],
                radius,
                pdf,
            )
        )
    return MovingObjectsDatabase(trajectories)


class TestBulkDifferenceConstruction:
    @given(mod=fleets(), window=st.sampled_from([(0.0, 10.0), (1.0, 9.0), (2.5, 6.25)]))
    def test_coefficients_bit_identical(self, mod, window):
        t_lo, t_hi = window
        query_id = next(iter(mod.object_ids))
        vectorized = mod.distance_functions(query_id, t_lo, t_hi)
        scalar = _scalar_functions(mod, query_id, t_lo, t_hi)
        assert len(vectorized) == len(scalar)
        for left, right in zip(vectorized, scalar):
            assert_identical_functions(left, right)

    def test_bulk_path_engages(self, small_mod, monkeypatch):
        # Candidates over the full window must be built from the packed
        # columns; a fall back to the per-candidate scalar builder would
        # erase the batching entirely.
        query_id = next(iter(small_mod.object_ids))
        t_lo, t_hi = small_mod.common_time_span()
        scalar = _scalar_functions(small_mod, query_id, t_lo, t_hi)
        calls = _spy_on_scalar_builder(monkeypatch)
        vectorized = small_mod.distance_functions(query_id, t_lo, t_hi)
        for left, right in zip(vectorized, scalar):
            assert_identical_functions(left, right)
        assert not calls, "bulk construction fell back to the scalar builder"


def _scalar_functions(mod, query_id, t_lo, t_hi):
    """The reference: one scalar build per candidate."""
    return difference.difference_distance_functions(
        list(mod), mod.get(query_id), t_lo, t_hi
    )


def _spy_on_scalar_builder(monkeypatch):
    """Record every call of the per-candidate scalar builder."""
    calls = []
    original = difference.difference_distance_function
    monkeypatch.setattr(
        difference,
        "difference_distance_function",
        lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs),
    )
    return calls


# Multi-segment histories: every vehicle reports on the cadence 0, 1, ..., 12.
CADENCE = tuple(float(minute) for minute in range(13))
#: Offsets of a report from its cadence time: none, within the time
#: tolerance, inside ``_EDGE_MARGIN`` and beyond it.
JITTER = (0.0, 0.0, 3e-10, -9e-10, 2e-9, -5e-9, 2e-8, 0.25)
EDGE = difference._EDGE_MARGIN / 2.0
MULTI_SEGMENT_WINDOWS = [
    (0.0, 12.0),  # the whole history: the window ends on the last sample
    (2.5, 9.25),  # between reports
    (3.0, 9.0),  # on reports
    (3.0 - EDGE, 9.0 + EDGE),  # reports inside _EDGE_MARGIN of both ends
    (3.0 + 3e-10, 12.0),  # a report within tolerance of the window start
    (7.0, 12.0),  # a sliding window ending on the last sample
]


@st.composite
def multi_segment_fleets(draw, min_size=3, max_size=6):
    """Fleets of long histories, one family of sample times per vehicle.

    * ``shared`` — the cadence itself: marks bitwise equal to the query's.
    * ``jitter`` — reports within tolerance of, inside ``_EDGE_MARGIN`` of,
      and well off the cadence: near-coincident marks on both sides.
    * ``dup`` — repeated timestamps: zero-length legs inside the window.
    * ``sparse`` — a subset of the cadence: legs spanning several marks.
    """
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    radius = 0.3
    pdf = UniformDiskPDF(radius)
    trajectories = []
    for index in range(count):
        family = draw(st.sampled_from(["shared", "shared", "jitter", "dup", "sparse"]))
        if family == "jitter":
            inner = [t + draw(st.sampled_from(JITTER)) for t in CADENCE[1:-1]]
            times = (CADENCE[0], *inner, CADENCE[-1])
        elif family == "dup":
            repeated = draw(st.sets(st.sampled_from(CADENCE), min_size=1, max_size=4))
            times = tuple(sorted(CADENCE + tuple(repeated)))
        elif family == "sparse":
            kept = draw(st.sets(st.sampled_from(CADENCE[1:-1]), max_size=6))
            times = (CADENCE[0], *sorted(kept), CADENCE[-1])
        else:
            times = CADENCE
        samples = [(draw(coordinate), draw(coordinate), t) for t in times]
        trajectories.append(UncertainTrajectory(f"o{index}", samples, radius, pdf))
    return MovingObjectsDatabase(trajectories)


def _cadence_fleet(*families):
    """A deterministic fleet, one vehicle per named sample-time tuple."""
    pdf = UniformDiskPDF(0.3)
    return MovingObjectsDatabase(
        UncertainTrajectory(
            f"o{index}",
            [(1.5 * index + 0.25 * t, 7.0 - index - 0.125 * t * t, t) for t in times],
            0.3,
            pdf,
        )
        for index, times in enumerate(families)
    )


class TestRaggedDifferenceConstruction:
    @given(
        mod=multi_segment_fleets(),
        window=st.sampled_from(MULTI_SEGMENT_WINDOWS),
        query=st.integers(min_value=0, max_value=2),
    )
    def test_multi_segment_coefficients_bit_identical(self, mod, window, query):
        t_lo, t_hi = window
        query_id = f"o{query}"
        vectorized = mod.distance_functions(query_id, t_lo, t_hi)
        scalar = _scalar_functions(mod, query_id, t_lo, t_hi)
        assert len(vectorized) == len(scalar)
        for left, right in zip(vectorized, scalar):
            assert_identical_functions(left, right)

    @pytest.mark.parametrize("window", MULTI_SEGMENT_WINDOWS[:3] + [(7.0, 12.0)])
    def test_shared_cadence_and_zero_length_legs_take_the_bulk_path(
        self, window, monkeypatch
    ):
        doubled = tuple(sorted(CADENCE + (4.0, 8.0, 8.0)))
        mod = _cadence_fleet(CADENCE, CADENCE, doubled, CADENCE[::3], (0.0, 12.0))
        scalar = _scalar_functions(mod, "o0", *window)
        calls = _spy_on_scalar_builder(monkeypatch)
        vectorized = mod.distance_functions("o0", *window)
        for left, right in zip(vectorized, scalar):
            assert_identical_functions(left, right)
        assert max(len(function.pieces) for function in vectorized) > 1
        assert not calls, "multi-segment candidates fell back to the scalar builder"

    def test_only_near_coincident_marks_fall_back(self):
        within_tolerance = tuple(t + 3e-10 if t == 5.0 else t for t in CADENCE)
        inside_margin = tuple(t - 5e-9 if t == 6.0 else t for t in CADENCE)
        mod = _cadence_fleet(CADENCE, within_tolerance, CADENCE, inside_margin)
        scalar = _scalar_functions(mod, "o0", 2.5, 9.25)
        before = difference.scalar_fallback_count()
        vectorized = mod.distance_functions("o0", 2.5, 9.25)
        assert difference.scalar_fallback_count() - before == 2
        for left, right in zip(vectorized, scalar):
            assert_identical_functions(left, right)

    def test_bulk_path_serves_the_whole_streaming_fleet(self, monkeypatch):
        # Every vehicle of the streaming fleet reports on one cadence, and a
        # sliding window trails the newest report: the shape the monitor's
        # standing queries evaluate on every tick.
        scenario = streaming_fleet(num_vehicles=20, num_queries=3, num_batches=3)
        mod = scenario.mod
        monitor = ContinuousMonitor(mod)
        for object_id in mod.object_ids:
            monitor.track(
                object_id,
                max_speed=scenario.max_speed,
                minimum_radius=scenario.uncertainty_radius,
            )
        calls = _spy_on_scalar_builder(monkeypatch)
        served = 0
        for batch in scenario.batches:
            for object_id, reports in batch.items():
                monitor.ingest(object_id, reports)
            monitor.apply()
            t_hi = mod.common_time_span()[1]
            for query_id in scenario.query_ids:
                vectorized = mod.distance_functions(query_id, t_hi - 5.0, t_hi)
                assert not calls, "the streaming fleet left the bulk path"
                served += len(vectorized)
                scalar = _scalar_functions(mod, query_id, t_hi - 5.0, t_hi)
                calls.clear()
                for left, right in zip(vectorized, scalar):
                    assert_identical_functions(left, right)
        assert served == 3 * 3 * 19


# ---------------------------------------------------------------------------
# End-to-end: planned statements on the production kernels vs the naive
# interpreter rerouted onto the references.
# ---------------------------------------------------------------------------


def _uq_statements(query_id, target_id, t_lo, t_hi):
    """One UQ2x (targeted) and one UQ4x (open) statement per variant."""
    window = f"TIME IN [{t_lo}, {t_hi}]"
    return [
        # UQ2x: rank-k with an explicit target (Category 2).
        f"SELECT T FROM MOD WHERE EXISTS {window} "
        f"AND RANK_NN(T, '{query_id}', TIME) <= 2 AND T = '{target_id}'",
        f"SELECT T FROM MOD WHERE FORALL {window} "
        f"AND RANK_NN(T, '{query_id}', TIME) <= 3 AND T = '{target_id}'",
        # UQ4x: open rank-k (Category 4).
        f"SELECT T FROM MOD WHERE EXISTS {window} "
        f"AND RANK_NN(T, '{query_id}', TIME) <= 2",
        f"SELECT T FROM MOD WHERE FORALL {window} "
        f"AND RANK_NN(T, '{query_id}', TIME) <= 2",
        f"SELECT T FROM MOD WHERE FRACTION {window} >= 0.25 "
        f"AND RANK_NN(T, '{query_id}', TIME) <= 3",
    ]


def _naive_reference_answers(texts, mod, reference_kernels):
    """Each statement through the naive interpreter on the reference kernels."""
    with reference_kernels():
        return [execute_query_naive(text, mod).object_ids for text in texts]


class TestEndToEndKernelEquivalence:
    def test_fixture_reroutes_every_production_kernel(
        self, small_mod, reference_kernels, monkeypatch
    ):
        # The oracle side of the tests below is only independent if no
        # production kernel runs under the fixture.
        calls = []

        def forbid(module, name):
            monkeypatch.setattr(
                module, name, lambda *args, **kwargs: calls.append(name)
            )

        forbid(pruning, "_band_rows_vector")
        forbid(klevel, "k_level_envelopes_bulk")
        forbid(divide_conquer, "front_envelopes")
        forbid(divide_conquer, "_recurse")
        monkeypatch.setattr(divide_conquer, "_FRONT_MIN_PIECES", 1)
        forbid(difference, "_build_from_columns")
        ids = sorted(small_mod.object_ids, key=str)
        t_lo, t_hi = small_mod.common_time_span()
        texts = _uq_statements(ids[0], ids[1], t_lo, t_hi)
        _naive_reference_answers(texts, small_mod, reference_kernels)
        assert not calls

    def test_planned_answers_equal_reference_naive_answers(
        self, small_mod, reference_kernels
    ):
        ids = sorted(small_mod.object_ids, key=str)
        t_lo, t_hi = small_mod.common_time_span()
        texts = _uq_statements(ids[0], ids[1], t_lo, t_hi)

        executor = QueryExecutor(small_mod)
        planned = executor.execute_many(texts)

        oracle = _naive_reference_answers(texts, small_mod, reference_kernels)
        for position, text in enumerate(texts):
            assert planned[position].object_ids == oracle[position], (
                f"planned answer diverged from the reference oracle:\n"
                f"{text}\nplanned={planned[position].object_ids}\n"
                f"oracle ={oracle[position]}"
            )

    def test_probability_statements_agree_with_reference_kernels(
        self, tiny_mod, reference_kernels
    ):
        t_lo, t_hi = tiny_mod.common_time_span()
        window = f"TIME IN [{t_lo}, {t_hi}]"
        texts = [
            f"SELECT T FROM MOD WHERE EXISTS {window} "
            f"AND PROBABILITY_NN(T, 'q', TIME) > 0",
            f"SELECT T FROM MOD WHERE FORALL {window} "
            f"AND PROBABILITY_NN(T, 'q', TIME) > 0",
            f"SELECT T FROM MOD WHERE EXISTS {window} "
            f"AND PROBABILITY_NN(T, 'q', TIME) > 0 AND T = 'near'",
        ]
        def planned():
            executor = QueryExecutor(tiny_mod)
            return [result.object_ids for result in executor.execute_many(texts)]

        production = planned()
        with reference_kernels():
            assert planned() == production


@pytest.mark.slow
class TestShardedKernelEquivalence:
    """The differential contract holds through every sharded backend label.

    Each label's UQ3x batch, computed with the production kernels, equals
    the naive interpreter run on the reference kernels.  The CI perf job
    runs this class; the default profile keeps it in the regular run too,
    since a 10-object fleet answers in well under a second.
    """

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_sharded_answers_equal_reference_naive_answers(
        self, backend, reference_kernels
    ):
        from repro.parallel import ShardedEngine

        config_mod = MovingObjectsDatabase(
            [
                UncertainTrajectory(
                    f"s{index}",
                    [
                        (float(index), 0.0, 0.0),
                        (float(index) + 3.0, 5.0, 5.0),
                        (float(index), 10.0, 10.0),
                    ],
                    0.3,
                    UniformDiskPDF(0.3),
                )
                for index in range(10)
            ]
        )
        t_lo, t_hi = config_mod.common_time_span()
        window = f"TIME IN [{t_lo}, {t_hi}]"
        shapes = {
            ("sometime", 0.0): f"EXISTS {window}",
            ("always", 0.0): f"FORALL {window}",
            ("fraction", 0.25): f"FRACTION {window} >= 0.25",
        }
        query_ids = ["s0", "s1", "s5"]

        with ShardedEngine(config_mod, num_shards=2, backend=backend) as sharded:
            sharded_answers = [
                sorted(answer, key=str)
                for variant, fraction in shapes
                for answer in sharded.answer_batch(
                    query_ids, t_lo, t_hi, variant=variant, fraction=fraction
                ).answers.values()
            ]

        texts = [
            f"SELECT T FROM MOD WHERE {quantified} "
            f"AND PROBABILITY_NN(T, '{query_id}', TIME) > 0"
            for quantified in shapes.values()
            for query_id in query_ids
        ]
        oracle = _naive_reference_answers(texts, config_mod, reference_kernels)
        assert sharded_answers == oracle
        assert any(oracle)
