"""A batch's staged preparation equals each query prepared alone.

``QueryEngine.prepare_batch`` builds its cold contexts in stages, each stage
but the kinetic front one pass over the whole batch: corridor radii from
the window's samples, one difference pass over every (query, candidate)
row, the front per context, and one band refinement over every context's
undecided rows.  Every context it returns must equal, with ``==``, the
context ``QueryContext.from_mod`` builds for that query alone over the same
candidates: pack columns, envelope pieces, survivors and their intervals
(element types included), UQ11 of every candidate and the UQ31/32/33
answers — on batches with duplicate ids, explicit and default band widths,
members already cached, windows without an interior sample, candidates on
the scalar row and difference builders, and windows the kinetic front
refuses.  The corridor radii must equal the
per-query reference kernel on windows that start before, at and after
samples, with objects that have no sample in the window.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, strategies as st

from repro.core import pruning
from repro.core.queries import QueryContext
from repro.core.tolerances import TIME_TOLERANCE
from repro.engine import QueryEngine, answer_of
from repro.engine.filtering import corridor_probe_bulk
from repro.reference.corridor import conservative_corridor_radius
from repro.streaming import reference_answer
from repro.trajectories import difference
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import UncertainTrajectory
from repro.uncertainty.uniform import UniformDiskPDF
from repro.workloads.scenarios import multi_query_fleet

from .test_context_pack import COLUMNS, mixed_fleets
from .test_envelope_differential import MULTI_SEGMENT_WINDOWS

WINDOWS = MULTI_SEGMENT_WINDOWS + [
    (5.25, 5.75),  # no sample inside the window
    (4.0, 4.0 + 2e-9),  # too short for the front and the difference pass
    (6.0, 6.0),  # zero length: no filter, the band's one-time case
]


def typed(intervals):
    return [(type(start), start, type(end), end) for start, end in intervals]


def assert_same_context(batched: QueryContext, alone: QueryContext) -> None:
    for column in COLUMNS:
        assert np.array_equal(getattr(batched.pack, column), getattr(alone.pack, column))
    assert batched.pack.ids == alone.pack.ids
    assert [(p.object_id, p.t_start, p.t_end) for p in batched.envelope.pieces] == [
        (p.object_id, p.t_start, p.t_end) for p in alone.envelope.pieces
    ]
    assert batched._surviving_rows().tolist() == alone._surviving_rows().tolist()
    mine, theirs = batched.survivor_intervals(), alone.survivor_intervals()
    assert list(mine) == list(theirs)
    for object_id, intervals in theirs.items():
        assert typed(mine[object_id]) == typed(intervals)
    for object_id in alone.pack.ids:
        assert batched.uq11_sometime(object_id) == alone.uq11_sometime(object_id)
    assert batched.uq31_all_sometime() == alone.uq31_all_sometime()
    assert batched.uq32_all_always() == alone.uq32_all_always()
    for fraction in (0.25, 0.75):
        assert batched.uq33_all_at_least(fraction) == alone.uq33_all_at_least(fraction)


@st.composite
def batches(draw):
    mod = draw(mixed_fleets())
    ids = mod.object_ids
    return (
        mod,
        draw(st.lists(st.sampled_from(ids), min_size=1, max_size=6)),
        draw(st.sampled_from(WINDOWS)),
        draw(st.sampled_from([None, None, 0.0, 1.7])),
        draw(st.lists(st.sampled_from(ids), max_size=2)),
    )


@given(case=batches())
def test_every_batch_context_equals_its_query_alone(case):
    mod, members, (t_lo, t_hi), band_width, cached = case
    engine = QueryEngine(mod)
    for query_id in cached:
        engine.prepare(query_id, t_lo, t_hi, band_width=band_width)
    batch = engine.prepare_batch(members, t_lo, t_hi, band_width=band_width)
    assert [prepared.query_id for prepared in batch] == members
    for position, prepared in enumerate(batch):
        query_id = prepared.query_id
        assert prepared.from_cache == (query_id in cached or query_id in members[:position])
        width = mod.default_band_width(query_id) if band_width is None else band_width
        # The engine filters every window but a zero-length one.
        candidates = engine.candidate_ids(query_id, t_lo, t_hi, width) if t_hi > t_lo else None
        alone = QueryContext.from_mod(mod, query_id, t_lo, t_hi, width, candidates)
        assert_same_context(prepared.context, alone)
        # ... and answers as the unfiltered definition does.
        for variant in ("sometime", "always"):
            assert answer_of(prepared.context, variant) == reference_answer(
                mod, query_id, t_lo, t_hi, variant, band_width=width
            )


@given(case=batches())
def test_a_batch_equals_its_members_prepared_one_by_one(case):
    # One filter scan for the batch, one per member: the same candidates,
    # in the same order, and the same answers.
    mod, members, (t_lo, t_hi), band_width, _ = case
    batch = QueryEngine(mod).prepare_batch(members, t_lo, t_hi, band_width=band_width)
    for prepared in batch:
        alone = QueryEngine(mod).prepare(prepared.query_id, t_lo, t_hi, band_width=band_width)
        assert prepared.context.pack.ids == alone.context.pack.ids
        assert prepared.corridor_radius == alone.corridor_radius
        for variant, fraction in (("sometime", 0.0), ("always", 0.0), ("fraction", 0.5)):
            assert answer_of(prepared.context, variant, fraction) == answer_of(
                alone.context, variant, fraction
            )


# ----------------------------------------------------------------------
# Corridor radii against the per-query reference.
# ----------------------------------------------------------------------


@st.composite
def spread_fleets(draw):
    """Vehicles on a half-minute grid with their own spans: some end before
    a window, start after it or report nothing inside it."""
    pdf = UniformDiskPDF(0.25)
    trajectories = []
    for index in range(draw(st.integers(min_value=2, max_value=10))):
        times = sorted(
            draw(st.lists(st.integers(min_value=0, max_value=40), min_size=2, max_size=12, unique=True))
        )
        points = draw(
            st.lists(
                st.tuples(st.floats(-9.0, 9.0), st.floats(-9.0, 9.0)),
                min_size=len(times),
                max_size=len(times),
            )
        )
        samples = [(x, y, 0.5 * t) for (x, y), t in zip(points, times)]
        trajectories.append(UncertainTrajectory(f"v{index}", samples, 0.25, pdf))
    return MovingObjectsDatabase(trajectories)


@given(
    mod=spread_fleets(),
    start=st.integers(min_value=0, max_value=40),
    shift=st.sampled_from([0.0, TIME_TOLERANCE, -TIME_TOLERANCE, 0.25, -0.25]),
    width=st.sampled_from([0.0, 0.5, 2.0, 7.25]),
)
def test_corridor_radii_equal_the_reference(mod, start, shift, width):
    t_lo = 0.5 * start + shift
    t_hi = t_lo + width
    query_ids = mod.object_ids
    widths = [mod.default_band_width(query_id) for query_id in query_ids]
    bulk = corridor_probe_bulk(mod, query_ids, t_lo, t_hi, widths)
    expected = [
        conservative_corridor_radius(mod, query_id, t_lo, t_hi, band)
        for query_id, band in zip(query_ids, widths)
    ]
    assert bulk.tolist() == expected


# ----------------------------------------------------------------------
# Engagement: one difference pass and one refinement per batch.
# ----------------------------------------------------------------------


def test_a_six_query_batch_runs_one_difference_pass_and_one_refinement(monkeypatch):
    mod, query_ids = multi_query_fleet(num_vehicles=300, num_queries=6, seed=29)
    calls = {"difference": 0, "refine": 0}
    build, refine = difference._build_from_columns, pruning._refine_bracketed_roots

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(difference, "_build_from_columns", counted("difference", build))
    monkeypatch.setattr(pruning, "_refine_bracketed_roots", counted("refine", refine))
    batch = QueryEngine(mod).prepare_batch(query_ids, 20.0, 28.0)
    assert len(batch) == 6 and not any(prepared.from_cache for prepared in batch)
    assert calls == {"difference": 1, "refine": 1}
    # Every context arrives with its interval map: answers run no band pass.
    before = pruning.band_tally()
    for prepared in batch:
        prepared.context.uq31_all_sometime()
    assert pruning.band_report(before)["rows"] == 0
