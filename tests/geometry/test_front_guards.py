"""The kinetic front's guards look only at the interval they protect.

Each case pins one refusal class the whole-window sweep used to raise on
the city fleet although nothing near the front was degenerate.  Every case
asserts both halves of the contract: the stack equals the scalar cascade
with ``==``, and no scalar slab was used to get there.
"""

import numpy as np
import pytest

from repro.geometry.envelope import klevel
from repro.geometry.envelope.bulk import (
    FunctionPack,
    front_report,
    front_tally,
    k_level_envelopes_bulk,
)
from repro.geometry.envelope.hyperbola import (
    DistanceFunction,
    Hyperbola,
    HyperbolaPiece,
)
from repro.reference.envelope import exclusion_cascade

from ..conftest import make_linear_function

T_LO, T_HI = 0.0, 10.0


def whole(object_id, curve):
    return DistanceFunction(object_id, [HyperbolaPiece(T_LO, T_HI, curve)])


def front_rows():
    """Three functions that own the top levels; they cross at t = 4.4, 4.7 and 5."""
    return [
        make_linear_function("a", 1.0, 0.0, 0.8, 0.0),
        make_linear_function("b", 9.0, 0.0, -0.9, 0.0),
        make_linear_function("c", 0.0, 5.0, 0.0, 0.0),
    ]


def assert_served_without_a_slab(functions, max_levels, monkeypatch):
    ordered = sorted(functions, key=lambda f: str(f.object_id))
    expected = exclusion_cascade(functions, T_LO, T_HI, max_levels)
    slabs = []
    monkeypatch.setattr(
        klevel,
        "exclusion_cascade",
        lambda fs, s, e, k: slabs.append((s, e)) or exclusion_cascade(fs, s, e, k),
    )
    before = front_tally()
    levels = k_level_envelopes_bulk(ordered, T_LO, T_HI, max_levels)
    assert not slabs, f"the front handed {slabs} to the scalar cascade"
    report = front_report(before)
    assert report["dirty_slabs"] == 0 and report["clean_slabs"] == 1
    assert len(levels) == len(expected)
    for level, reference in zip(levels, expected.levels):
        assert [(p.object_id, p.t_start, p.t_end) for p in level.pieces] == [
            (p.object_id, p.t_start, p.t_end) for p in reference.pieces
        ]


class TestGuardScope:
    def test_a_tangency_outside_the_window_is_not_seen(self, monkeypatch):
        # g = f + (t + 50)²: an exact double root at t = -50.  The all-pairs
        # sweep tested root separation wherever the roots lay and refused
        # the window [0, 10], forty minutes away.
        functions = front_rows()
        curve = functions[0].pieces[0].curve
        functions.append(
            whole("t-tan", Hyperbola(curve.a + 1.0, curve.b + 100.0, curve.c + 2500.0))
        )
        assert_served_without_a_slab(functions, 3, monkeypatch)

    def test_near_coincident_events_below_rank_k_are_not_seen(self, monkeypatch):
        # Three functions far above the two levels asked for cross each
        # other at t = 7 and t = 7 + 2**-29 (1.9e-9 apart, inside the guard
        # band): critical times of the arrangement, not of its top, and two
        # minutes from the nearest event of the front.
        deep = Hyperbola(0.0, 0.0, 400.0)
        r = 7.0 + 2.0**-29
        functions = front_rows() + [
            whole("deep-0", deep),
            whole("deep-1", Hyperbola(1.0, -(7.0 + 20.0), 400.0 + 7.0 * 20.0)),
            whole("deep-2", Hyperbola(1.0, -(r + 30.0), 400.0 + r * 30.0)),
        ]
        roots = sorted(
            functions[3].intersection_times(functions[4], T_LO, T_HI)
            + functions[3].intersection_times(functions[5], T_LO, T_HI)
        )
        assert len(roots) == 2 and 0.0 < roots[1] - roots[0] < 4e-9
        assert_served_without_a_slab(functions, 2, monkeypatch)

    def test_a_root_hugging_an_unrelated_breakpoint_is_not_seen(self, monkeypatch):
        # "a" and "c" cross at 5 exactly; a far function changes pieces
        # 2**-28 (3.7e-9) later.  Its breakpoint is a critical time of the
        # arrangement inside the crossing's guard band, but not one of
        # either curve that meets there.
        functions = [
            whole("a", Hyperbola(1.0, 0.0, 0.0)),  # distance t
            whole("c", Hyperbola(0.0, 0.0, 25.0)),  # distance 5
            whole("b", Hyperbola(0.0, 0.0, 64.0)),
        ]
        far = Hyperbola(0.0, 0.0, 900.0)
        split = 5.0 + 2.0**-28
        functions.append(
            DistanceFunction(
                "far",
                [HyperbolaPiece(T_LO, split, far), HyperbolaPiece(split, T_HI, far)],
            )
        )
        assert functions[0].intersection_times(functions[1], T_LO, T_HI) == [5.0]
        assert_served_without_a_slab(functions, 2, monkeypatch)


class TestBelowTheSolverEpsilon:
    """Curves whose ``t²`` coefficients differ by less than ``COEFF_EPSILON``
    (distances around 1e-9).  The solver drops that term, so it misses a
    crossing that is there or reports one that is not.  The scalar then
    ranks the pair by the midpoints of its elementary intervals, anywhere in
    the window, and the walk by the values where it re-ranks or by a swap at
    the reported root.  No guard hands such a pair to the scalar yet: one
    over the pair's whole overlap fires on rows the contender cut drops."""

    @pytest.mark.parametrize(
        "curves",
        [
            # distance 1e-9·t against 1e-12·sqrt(t² + 1): they cross near
            # t = 1e-3, and the solver sees no crossing.
            [(1e-18, 0.0, 0.0), (1e-24, 0.0, 1e-24)],
            [(1e-18, 2e-21, 1e-24), (0.0, 0.0, 1e-18)],
            # 3e-9·t against 1e-6·|t - 1|: the solver's linear root at
            # t = 0.5 is no crossing at all.
            [(9e-18, -6e-309, 1e-20), (1.000001e-12, -2.0000002e-12, 1.00000001e-12)],
        ],
    )
    @pytest.mark.xfail(strict=True, reason="the front parts from the scalar below COEFF_EPSILON")
    def test_the_stack_is_the_cascade(self, curves):
        functions = [whole(f"f{index}", Hyperbola(*curve)) for index, curve in enumerate(curves)]
        expected = exclusion_cascade(functions, T_LO, T_HI, 2)
        levels = klevel.k_level_envelopes(functions, T_LO, T_HI, 2)
        assert [
            [(p.object_id, p.t_start, p.t_end) for p in level.pieces] for level in levels.levels
        ] == [
            [(p.object_id, p.t_start, p.t_end) for p in level.pieces] for level in expected.levels
        ]


class TestFunctionPack:
    @pytest.fixture
    def functions(self):
        rng = np.random.default_rng(3)
        built = []
        for index, marks in enumerate([(), (4.0,), (2.5, 2.5, 7.0), (4.0, 6.25)]):
            times = (-1.0, *marks, 11.0)
            curves = rng.uniform(0.5, 3.0, size=(len(times) - 1, 3))
            built.append(
                DistanceFunction(
                    f"f{index}",
                    [
                        HyperbolaPiece(lo, hi, Hyperbola(*map(float, curve)))
                        for lo, hi, curve in zip(times, times[1:], curves)
                    ],
                )
            )
        return built

    def test_columns_are_the_pieces_in_order(self, functions):
        pack = FunctionPack(functions)
        pieces = [piece for function in functions for piece in function.pieces]
        assert pack.offsets.tolist() == [0, 1, 3, 7, 10]
        assert pack.owner.tolist() == [0, 1, 1, 2, 2, 2, 2, 3, 3, 3]
        assert pack.starts.tolist() == [piece.t_start for piece in pieces]
        assert pack.ends.tolist() == [piece.t_end for piece in pieces]
        assert pack.c.tolist() == [piece.curve.c for piece in pieces]

    @pytest.mark.parametrize("t", [0.0, 2.5, 3.3, 4.0, 6.25, 7.0, 10.0, 11.0])
    def test_lookups_match_the_scalar_functions(self, functions, t):
        pack = FunctionPack(functions)
        pieces = [piece for function in functions for piece in function.pieces]
        left = pack.piece_index_at(t)
        assert [pieces[index] for index in left] == [f.piece_at(t) for f in functions]
        assert pack.values_at(t).tolist() == [f.value(t) for f in functions]
        # Just after a breakpoint the next piece of positive length rules.
        right = pack.piece_index_at(t, "right")
        for function, index in zip(functions, right):
            later = [piece for piece in function.pieces if piece.t_end > t]
            assert pieces[index] is (later[0] if later else function.pieces[-1])
