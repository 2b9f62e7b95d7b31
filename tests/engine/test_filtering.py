"""Corridor-radius bounds and candidate filtering safety."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.queries import QueryContext
from repro.engine.filtering import filter_candidates
from repro.geometry.envelope.bulk import FunctionPack
from repro.geometry.envelope.quadratic import extrema
from repro.reference.corridor import (
    TrajectoryArrays,
    conservative_corridor_radius,
    max_pairwise_distance,
)
from repro.trajectories.mod import MovingObjectsDatabase
from repro.workloads.random_waypoint import RandomWaypointConfig, generate_trajectories

from ..conftest import straight_trajectory


class TestMaxPairwiseDistance:
    def test_matches_dense_sampling(self, rng):
        config = RandomWaypointConfig(
            num_objects=6, segments_per_trajectory=3, uncertainty_radius=0.5, seed=5
        )
        trajectories = generate_trajectories(config)
        lo = max(t.start_time for t in trajectories)
        hi = min(t.end_time for t in trajectories)
        arrays = TrajectoryArrays()
        for first, second in zip(trajectories, trajectories[1:]):
            exact = max_pairwise_distance(first, second, lo, hi, arrays)
            sampled = max(
                first.position_at(t).distance_to(second.position_at(t))
                for t in np.linspace(lo, hi, 400)
            )
            assert exact >= sampled - 1e-9
            assert exact == pytest.approx(sampled, abs=0.05)

    def test_parallel_lines_constant_distance(self):
        first = straight_trajectory("a", (0.0, 0.0), (10.0, 0.0))
        second = straight_trajectory("b", (0.0, 3.0), (10.0, 3.0))
        assert max_pairwise_distance(first, second, 0.0, 60.0) == pytest.approx(3.0)


class TestConservativeCorridorRadius:
    def test_bounds_every_band_survivor(self):
        config = RandomWaypointConfig(num_objects=20, uncertainty_radius=0.5, seed=31)
        mod = MovingObjectsDatabase(generate_trajectories(config))
        lo, hi = mod.common_time_span()
        query_id = mod.object_ids[0]
        band_width = mod.default_band_width(query_id)
        corridor = conservative_corridor_radius(mod, query_id, lo, hi, band_width)
        context = QueryContext.from_mod(mod, query_id, lo, hi)
        query = mod.get(query_id)
        for function in context.survivors():
            # Every band survivor's expected polyline must dip inside the
            # corridor at some time: its distance function minimum is below
            # the corridor radius by construction of the bound.
            pack = FunctionPack([function])
            low, _ = extrema(
                pack.a, pack.b, pack.c, np.maximum(pack.starts, lo), np.minimum(pack.ends, hi)
            )
            closest = math.sqrt(max(float(low.min()), 0.0))
            assert closest <= corridor + 1e-9

    def test_radius_shrinks_with_a_close_companion(self, tiny_mod):
        lo, hi = tiny_mod.common_time_span()
        wide = conservative_corridor_radius(tiny_mod, "q", lo, hi, band_width=2.0)
        # "near" runs parallel 2 miles away, so U == 2 and the radius is 4.
        assert wide == pytest.approx(4.0, abs=1e-9)

    def test_partial_coverage_returns_infinite_radius(self):
        mod = MovingObjectsDatabase(
            [
                straight_trajectory("q", (0.0, 0.0), (10.0, 0.0), t_lo=0.0, t_hi=60.0),
                straight_trajectory("late", (5.0, 1.0), (9.0, 1.0), t_lo=30.0, t_hi=60.0),
            ]
        )
        corridor = conservative_corridor_radius(mod, "q", 0.0, 60.0, band_width=2.0)
        assert corridor == float("inf")

    def test_filter_keeps_everything_on_infinite_radius(self):
        mod = MovingObjectsDatabase(
            [
                straight_trajectory("q", (0.0, 0.0), (10.0, 0.0), t_lo=0.0, t_hi=60.0),
                straight_trajectory("late", (5.0, 1.0), (9.0, 1.0), t_lo=30.0, t_hi=60.0),
                straight_trajectory("early", (2.0, 1.0), (4.0, 1.0), t_lo=0.0, t_hi=20.0),
            ]
        )
        index = mod.build_index()
        candidates, corridor = filter_candidates(mod, index, "q", 0.0, 60.0, 2.0)
        assert corridor == float("inf")
        assert set(candidates) == {"late", "early"}


#: A store holding ``7`` and ``"7"``: two ids with one ``str``.
_SHARED_STR_STORE = """
from repro.engine import QueryEngine
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import UncertainTrajectory

mod = MovingObjectsDatabase([
    UncertainTrajectory("q", [(0.0, 0.0, 0.0), (10.0, 0.0, 10.0)], 0.5),
    UncertainTrajectory(7, [(0.0, 1.0, 0.0), (10.0, 1.0, 10.0)], 0.5),
    UncertainTrajectory("7", [(0.0, -1.0, 0.0), (10.0, -1.0, 10.0)], 0.5),
    UncertainTrajectory("v0", [(0.0, 2.0, 0.0), (10.0, 2.0, 10.0)], 0.5),
])
engine = QueryEngine(mod)
print(engine.candidate_ids("q", 1.0, 9.0), engine.prepare("q", 1.0, 9.0).context.pack.ids)
"""


def test_candidate_order_does_not_depend_on_the_hash_seed():
    # Ids sharing a ``str`` are ordered by store insertion, not set order.
    inherited = os.environ.get("PYTHONPATH")
    src = str(Path(__file__).resolve().parents[2] / "src")
    outputs = set()
    for seed in range(1, 7):
        env = dict(
            os.environ,
            PYTHONHASHSEED=str(seed),
            PYTHONPATH=f"{src}{os.pathsep}{inherited}" if inherited else src,
        )
        result = subprocess.run(
            [sys.executable, "-c", _SHARED_STR_STORE],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        outputs.add(result.stdout.strip())
    assert outputs == {"[7, '7', 'v0'] [7, '7', 'v0']"}


class TestTrajectoryArrays:
    def test_columns_are_cached(self, tiny_mod):
        arrays = TrajectoryArrays()
        trajectory = tiny_mod.get("q")
        first = arrays.columns(trajectory)
        second = arrays.columns(trajectory)
        assert first[0] is second[0]

    def test_invalidate_refreshes(self, tiny_mod):
        arrays = TrajectoryArrays()
        trajectory = tiny_mod.get("q")
        first = arrays.columns(trajectory)
        arrays.invalidate("q")
        second = arrays.columns(trajectory)
        assert first[0] is not second[0]

    def test_flat_tracks_mod_revision(self, tiny_mod):
        arrays = TrajectoryArrays()
        ids, starts, lengths, times, xs, ys = arrays.flat(tiny_mod)
        assert len(ids) == len(tiny_mod)
        assert int(lengths.sum()) == len(times) == len(xs) == len(ys)
        assert arrays.flat(tiny_mod)[0] is ids  # cached
        tiny_mod.add(straight_trajectory("extra", (1.0, 1.0), (2.0, 2.0)))
        refreshed_ids = arrays.flat(tiny_mod)[0]
        assert "extra" in refreshed_ids
        tiny_mod.remove("extra")

    def test_positions_interpolate_linearly(self, tiny_mod):
        arrays = TrajectoryArrays()
        trajectory = tiny_mod.get("q")  # (0,0) -> (30,0) over [0, 60]
        xs, ys = arrays.positions(trajectory, np.array([0.0, 30.0, 60.0]))
        assert xs == pytest.approx([0.0, 15.0, 30.0])
        assert ys == pytest.approx([0.0, 0.0, 0.0])
