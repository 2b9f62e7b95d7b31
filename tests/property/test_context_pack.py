"""A context built over its function pack equals one built from objects.

``QueryContext.from_mod`` keeps the :class:`FunctionPack` the columnar
difference pass returns and makes a ``DistanceFunction`` only for a row
something reads.  The oracle is the eager route: every candidate's object
first (``mod.distance_functions``), then ``QueryContext.build`` over that
list.  The two must agree with ``==`` on everything an answer is made of —
the pack's columns, the envelope's pieces, every candidate's band
intervals, the UQ3x answers and the level envelopes 1..3 (against the
scalar cascade over the eager survivors) — on fleets whose packs mix
columnar rows with rows the columnar pass refuses, and on contexts on
either side of the envelope's 64-piece switch.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, strategies as st

from repro.core.queries import QueryContext
from repro.geometry.envelope.bulk import FunctionPack
from repro.reference.envelope import exclusion_cascade
from repro.trajectories import difference
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import UncertainTrajectory
from repro.uncertainty.uniform import UniformDiskPDF

from .test_envelope_differential import (
    CADENCE,
    JITTER,
    MULTI_SEGMENT_WINDOWS,
    assert_identical_functions,
)

COLUMNS = ("starts", "ends", "a", "b", "c", "offsets")


@st.composite
def mixed_fleets(draw):
    """Cadence fleets of 4 to 40 vehicles around the query ``o0``.

    ``o1`` reports 3e-10 after the query at minute 5, which the columnar
    pass refuses (distinct marks inside ``_EDGE_MARGIN``); the rest share
    the cadence, jitter off it, repeat a timestamp or skip reports.
    """
    count = draw(st.sampled_from([4, 12, 40]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    pdf = UniformDiskPDF(0.3)
    trajectories = []
    for index in range(count):
        family = "near" if index == 1 else "shared" if index == 0 else rng.choice(
            ["shared", "jitter", "dup", "sparse"]
        )
        if family == "near":
            times = tuple(t + 3e-10 if t == 5.0 else t for t in CADENCE)
        elif family == "jitter":
            inner = [t + JITTER[rng.integers(len(JITTER))] for t in CADENCE[1:-1]]
            times = (CADENCE[0], *inner, CADENCE[-1])
        elif family == "dup":
            times = tuple(sorted(CADENCE + (CADENCE[rng.integers(len(CADENCE))],)))
        elif family == "sparse":
            kept = rng.choice(CADENCE[1:-1], size=rng.integers(0, 6), replace=False)
            times = (CADENCE[0], *sorted(kept), CADENCE[-1])
        else:
            times = CADENCE
        # Repeated timestamps stay stationary, as the definition oracle's do.
        points = rng.uniform(-6.0, 6.0, size=(len(times), 2))
        for position in range(1, len(times)):
            if times[position] == times[position - 1]:
                points[position] = points[position - 1]
        samples = [(float(x), float(y), t) for (x, y), t in zip(points, times)]
        trajectories.append(UncertainTrajectory(f"o{index}", samples, 0.3, pdf))
    return MovingObjectsDatabase(trajectories)


def _pieces(envelope):
    return [(piece.object_id, piece.t_start, piece.t_end) for piece in envelope.pieces]


@given(mod=mixed_fleets(), window=st.sampled_from(MULTI_SEGMENT_WINDOWS))
def test_context_over_the_pack_equals_the_context_over_objects(mod, window):
    t_lo, t_hi = window
    band_width = mod.default_band_width("o0")
    before = difference.scalar_fallback_count()
    packed = QueryContext.from_mod(mod, "o0", t_lo, t_hi)
    if t_lo < 5.0 < t_hi:
        assert difference.scalar_fallback_count() > before, "the pack is not mixed"
    eager = QueryContext.build(
        mod.distance_functions("o0", t_lo, t_hi), "o0", t_lo, t_hi, band_width
    )
    reference = FunctionPack(list(eager.functions.values()))
    for column in COLUMNS:
        assert np.array_equal(getattr(packed.pack, column), getattr(reference, column))
    assert packed.pack.ids == reference.ids
    assert _pieces(packed.envelope) == _pieces(eager.envelope)

    assert packed.uq31_all_sometime() == eager.uq31_all_sometime()
    assert packed.uq32_all_always() == eager.uq32_all_always()
    for fraction in (0.25, 0.75):
        assert packed.uq33_all_at_least(fraction) == eager.uq33_all_at_least(fraction)
    for object_id in eager.functions:
        assert packed.nonzero_probability_intervals(
            object_id
        ) == eager.nonzero_probability_intervals(object_id)
    assert packed.survivor_intervals() == eager.survivor_intervals()

    # The levels' oracle is the scalar cascade over the eager survivors, so
    # it shares no pack (and no take) with the context under test.
    levels = packed.level_envelopes(3)
    survivors = eager.survivors() or list(eager.functions.values())
    expected = exclusion_cascade(survivors, t_lo, t_hi, max_levels=3)
    assert len(levels) == len(expected)
    for level, oracle in zip(levels.levels, expected.levels):
        assert _pieces(level) == _pieces(oracle)

    # Rows made on demand are the objects the eager path makes.
    for object_id, function in eager.functions.items():
        assert_identical_functions(packed.functions[object_id], function)
