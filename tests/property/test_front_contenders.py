"""The kinetic front walks only its contenders, and that changes nothing.

``_contenders`` cuts the functions that can never reach level ``limit + 1``
and ``_solve_all`` solves every crossing the walk can read in one pass.
These properties pin both against the walk they replace:

* the walk's log (bounds, owners, dirty intervals) and the kernel tally
  equal those of the walk over every row (``_contenders`` patched to keep
  them all), at one level and at three, on the adversarial families of the
  differential suite and on random packs whose curves jump at breakpoints,
  also when a first cut's owners reach its ceiling and the walk goes deeper;
* the one-pass solve equals the per-piece reference solve, piece by piece,
  as multisets of roots with partners and of guard spans;
* every row that ranks ``limit + 1`` or better at a sampled time is kept;
* on the N=2000 city fleet the cut keeps a small share of the rows, so a
  cut that silently kept everything would fail.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.queries import QueryContext
from repro.geometry.envelope import bulk
from repro.geometry.envelope.bulk import (
    DegenerateArrangement,
    FunctionPack,
    front_tally,
    k_level_envelopes_bulk,
)
from repro.geometry.envelope.hyperbola import DistanceFunction, Hyperbola, HyperbolaPiece
from repro.reference.front import solve_piece
from repro.workloads.scenarios import multi_query_fleet

from .test_envelope_differential import T_LO, T_HI, _canonical, adversarial_functions

breakpoint_time = st.sampled_from([1.25, 2.5, 3.0, 5.0, 6.5, 7.75, 9.0])


@st.composite
def jumping_packs(draw):
    """10 to 40 functions over the window, each one to three pieces whose
    curves are drawn independently, so most breakpoints are jumps."""
    functions = []
    for index in range(draw(st.integers(min_value=10, max_value=40))):
        cuts = sorted(set(draw(st.lists(breakpoint_time, max_size=2))))
        edges = [T_LO, *cuts, T_HI]
        pieces = []
        for start, end in zip(edges, edges[1:]):
            x0, y0 = draw(st.floats(-20, 20)), draw(st.floats(-20, 20))
            vx, vy = draw(st.floats(-3, 3)), draw(st.floats(-3, 3))
            # |(x0, y0) + (vx, vy) t|², as a difference function's square.
            curve = Hyperbola(vx * vx + vy * vy, 2.0 * (x0 * vx + y0 * vy), x0 * x0 + y0 * y0)
            pieces.append(HyperbolaPiece(start, end, curve))
        functions.append(DistanceFunction(f"j{index:02d}", pieces))
    return functions


function_sets = st.one_of(adversarial_functions(), jumping_packs())


def _keep_every_row(pack, t_lo, t_hi, depth):
    return np.arange(len(pack)), np.full(bulk._SLOTS, np.inf)


def _dirty(bounds, marks):
    """The elementary intervals a marked span overlaps, as ``_stitch`` reads them."""
    dirty = [False] * (len(bounds) - 1)
    for span_lo, span_hi in marks:
        first = max(bisect_right(bounds, span_lo) - 1, 0)
        last = min(bisect_left(bounds, span_hi), len(dirty))
        dirty[first:last] = [True] * (last - first)
    return dirty


def _run(functions, limit):
    """The walk's log, the stitched stack and the kernel tally."""
    pack = FunctionPack(_canonical(functions))
    limit = min(limit, len(pack))
    try:
        bounds, tops, marks = bulk._advance(pack, T_LO, T_HI, limit)
        log = (bounds, tops, _dirty(bounds, marks))
    except DegenerateArrangement as error:
        log = str(error)
    with pytest.MonkeyPatch.context() as patch:
        # A tally from zero, so that its minutes are summed in one order.
        patch.setattr(bulk._TALLY, "totals", (0, 0, 0, 0.0, 0.0, 0, 0), raising=False)
        try:
            stack = [
                [(piece.object_id, piece.t_start, piece.t_end) for piece in level.pieces]
                for level in k_level_envelopes_bulk(pack, T_LO, T_HI, limit)
            ]
        except DegenerateArrangement as error:
            stack = str(error)
        tally = front_tally()[:5]  # rows walked aside
    return log, stack, tally


@pytest.mark.parametrize("limit", [1, 3])
@given(functions=function_sets)
def test_the_walk_over_the_contenders_logs_the_walk_over_every_row(functions, limit):
    cut = _run(functions, limit)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bulk, "_contenders", _keep_every_row)
        full = _run(functions, limit)
    assert cut == full


@given(functions=function_sets)
def test_owners_that_reach_the_ceiling_send_the_walk_deeper(functions):
    # A first cut no owner above distance 0 stays under (a zero ceiling)
    # must be caught, and the walk over the next, deeper cut must log the
    # walk over every row.
    contenders, walk, depths, walks = bulk._contenders, bulk._walk, [], []

    def too_shallow(pack, t_lo, t_hi, depth):
        depths.append(depth)
        if len(depths) > 1:
            return contenders(pack, t_lo, t_hi, depth)
        return np.arange(min(depth, len(pack))), np.zeros(bulk._SLOTS)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bulk, "_contenders", too_shallow)
        patch.setattr(bulk, "_walk", lambda *args: walks.append(walk(*args)) or walks[-1])
        cut = _run(functions, 3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bulk, "_contenders", _keep_every_row)
        full = _run(functions, 3)
    assert cut == full
    if walks and walks[0] is None:
        assert depths[1] == 2 * depths[0]


@given(functions=function_sets)
def test_one_solve_pass_equals_the_per_piece_reference(functions):
    pack = FunctionPack(_canonical(functions))
    live = np.nonzero((pack.starts < T_HI) & (pack.ends > T_LO))[0]
    solved = bulk._solve_all(pack, live, T_LO, T_HI)
    assert sorted(solved) == live.tolist()
    for piece, (times, partners, spans) in solved.items():
        reference = solve_piece(pack, piece, T_LO, T_HI)
        assert times == sorted(times)
        assert sorted(zip(times, partners)) == sorted(
            zip(reference.times.tolist(), reference.partner.tolist())
        )
        assert sorted(spans) == sorted(
            zip(reference.span_lo.tolist(), reference.span_hi.tolist())
        )


@pytest.mark.parametrize("limit", [1, 3])
@given(functions=function_sets)
def test_every_row_near_the_top_is_kept(functions, limit):
    pack = FunctionPack(_canonical(functions))
    depth = limit + 1
    kept, _ = bulk._contenders(pack, T_LO, T_HI, depth)
    assert kept.tolist() == sorted(set(kept.tolist()))
    ranked = set()
    for t in np.linspace(T_LO, T_HI, 257):
        for side in ("left", "right"):
            values = pack.values_at(t, pack.piece_index_at(t, side))
            ranked.update(np.argsort(values, kind="stable")[:depth].tolist())
    assert ranked <= set(kept.tolist())


def test_the_cut_keeps_few_rows_of_the_city_fleet():
    # The rank_sweep world at N=2000: the first level over every candidate
    # and three levels over the band survivors, as a cold context walks them.
    mod, query_ids = multi_query_fleet(num_vehicles=2000, num_queries=10, seed=29)
    shares = []
    for position, query_id in enumerate(query_ids):
        start = 7.0 + 3.1 * position
        context = QueryContext.from_mod(mod, query_id, start, start + 12.0)
        survivors = context.pack.take(context._surviving_rows())
        for pack, depth in ((context.pack, 2), (survivors, 4)):
            kept, _ = bulk._contenders(pack, start, start + 12.0, depth)
            shares.append(len(kept) / len(pack))
    assert len(shares) == 20
    assert np.median(shares) <= 0.15, sorted(shares)
