"""Shared fixtures and hypothesis profiles for the test suite."""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

# Seeded (derandomized) hypothesis profiles: the ``ci`` profile keeps the
# property suites fast and reproducible on every push; the ``nightly``
# profile (selected by HYPOTHESIS_PROFILE=nightly, see
# .github/workflows/bench-trend.yml) spends two orders of magnitude more
# examples hunting for adversarial inputs to the differential kernels.
settings.register_profile("ci", max_examples=25, deadline=None, derandomize=True)
settings.register_profile(
    "nightly", max_examples=400, deadline=None, derandomize=True
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

from repro.core import ipacnn, pruning, queries
from repro.engine import engine as engine_module
from repro.geometry.envelope import divide_conquer, klevel
from repro.geometry.envelope.bulk import FunctionPack
from repro.geometry.envelope.hyperbola import DistanceFunction
from repro.reference import band as reference_band
from repro.reference import envelope as reference_envelope
from repro.reference.boxes import Box3D, IndexEntry
from repro.trajectories.difference import difference_distance_functions
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import UncertainTrajectory
from repro.uncertainty.uniform import UniformDiskPDF
from repro.workloads.random_waypoint import RandomWaypointConfig, generate_trajectories


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def reference_kernels(monkeypatch):
    """``with reference_kernels():`` runs the stack on the reference kernels.

    Inside the block the four production entry points are their
    references, in every module that holds a name for them: the batched
    band builder is :func:`repro.reference.band.band_intervals_batch` (and
    the many-context pass one such call per context, its lists packed into
    the production pass's :class:`~repro.core.pruning.BandColumns`), the
    envelope and
    k-level builders are the plain recursion and cascade of
    :mod:`repro.reference.envelope`, and
    ``MovingObjectsDatabase.distance_functions`` (and ``distance_pack`` and
    ``distance_packs``, packs of the same lists) builds every candidate
    with the scalar ``difference_distance_function``.  This is how an
    end-to-end oracle reaches the references; production code has no
    switch for it.
    """

    def scalar_distance_functions(mod, query_id, t_lo, t_hi, candidate_ids=None):
        ids = mod.object_ids if candidate_ids is None else candidate_ids
        return difference_distance_functions(
            [mod.get(object_id) for object_id in ids], mod.get(query_id), t_lo, t_hi
        )

    def scalar_packs(mod, query_ids, t_lo, t_hi, candidate_ids=None):
        return [
            FunctionPack(scalar_distance_functions(mod, query_id, t_lo, t_hi, chosen))
            for query_id, chosen in zip(query_ids, candidate_ids or [None] * len(query_ids))
        ]

    def reference_band_columns(passes):
        """The reference's interval lists, as the production pass's columns."""
        bands = []
        for lists in reference_band.band_intervals_many(passes):
            spans = [span for intervals in lists for span in intervals]
            bands.append(pruning.BandColumns(
                np.cumsum([0] + [len(intervals) for intervals in lists]),
                np.array([start for start, _ in spans], dtype=float),
                np.array([end for _, end in spans], dtype=float),
            ))
        return bands

    @contextmanager
    def swapped():
        with monkeypatch.context() as patch:
            for module in (pruning, queries):
                patch.setattr(
                    module, "band_intervals_batch", reference_band.band_intervals_batch
                )
            for module in (pruning, queries, ipacnn, engine_module):
                patch.setattr(module, "band_intervals_many", reference_band_columns)
            patch.setattr(MovingObjectsDatabase, "distance_packs", scalar_packs)
            for module in (klevel, queries):
                patch.setattr(
                    module, "k_level_envelopes", reference_envelope.exclusion_cascade
                )
            for module in (divide_conquer, queries):
                patch.setattr(module, "lower_envelope", reference_envelope.le_alg)
            patch.setattr(
                MovingObjectsDatabase, "distance_functions", scalar_distance_functions
            )
            patch.setattr(
                MovingObjectsDatabase,
                "distance_pack",
                lambda *args, **kwargs: FunctionPack(scalar_distance_functions(*args, **kwargs)),
            )
            yield

    return swapped


def make_linear_function(
    object_id: object,
    x0: float,
    y0: float,
    vx: float,
    vy: float,
    t_lo: float = 0.0,
    t_hi: float = 10.0,
) -> DistanceFunction:
    """Distance function of a single relative motion (test helper)."""
    return DistanceFunction.single_segment(object_id, x0, y0, vx, vy, t_lo, t_hi)


@pytest.fixture
def crossing_functions() -> list[DistanceFunction]:
    """Three relative motions whose distance functions cross inside [0, 10].

    Object "a" starts near the origin and drifts away, "b" starts far and
    approaches, "c" stays at an intermediate constant distance — a small
    scenario with a known envelope structure.
    """
    return [
        make_linear_function("a", 1.0, 0.0, 0.8, 0.0),
        make_linear_function("b", 9.0, 0.0, -0.8, 0.0),
        make_linear_function("c", 0.0, 5.0, 0.0, 0.0),
    ]


def random_functions(
    count: int, rng: np.random.Generator, t_lo: float = 0.0, t_hi: float = 10.0
) -> list[DistanceFunction]:
    """Random single-segment distance functions (test helper)."""
    functions = []
    for index in range(count):
        x0, y0 = rng.uniform(-20.0, 20.0, 2)
        vx, vy = rng.uniform(-2.0, 2.0, 2)
        functions.append(
            make_linear_function(f"obj-{index}", x0, y0, vx, vy, t_lo, t_hi)
        )
    return functions


def straight_trajectory(
    object_id: object,
    start: tuple[float, float],
    end: tuple[float, float],
    t_lo: float = 0.0,
    t_hi: float = 60.0,
    radius: float = 0.5,
) -> UncertainTrajectory:
    """A single-segment uncertain trajectory (test helper)."""
    return UncertainTrajectory(
        object_id,
        [(start[0], start[1], t_lo), (end[0], end[1], t_hi)],
        radius,
        UniformDiskPDF(radius),
    )


def box_entries(boxes) -> list[IndexEntry]:
    """Columnar ``SegmentBoxArrays`` rows as the reference loop's entries."""
    return [
        IndexEntry(Box3D(*box), boxes.ids[slot])
        for *box, slot in zip(
            boxes.x_min.tolist(),
            boxes.y_min.tolist(),
            boxes.t_min.tolist(),
            boxes.x_max.tolist(),
            boxes.y_max.tolist(),
            boxes.t_max.tolist(),
            boxes.owner_slots.tolist(),
        )
    ]


def probe_box(table, box: Box3D) -> set:
    """Ids owning a live table row that meets one box."""
    (found,) = table.probe([(
        np.array([[box.x_min], [box.y_min], [box.t_min]]),
        np.array([[box.x_max], [box.y_max], [box.t_max]]),
    )])
    return set(found)


def probe_corridor(table, trajectory, distance: float, t_lo: float, t_hi: float) -> set:
    """Ids other than the trajectory's whose table rows meet its corridor."""
    (found,) = table.probe([table.corridor_probes(trajectory, distance, t_lo, t_hi)])
    return set(found) - {trajectory.object_id}


@pytest.fixture
def small_mod() -> MovingObjectsDatabase:
    """A 16-object random-waypoint MOD over 60 minutes."""
    config = RandomWaypointConfig(num_objects=16, uncertainty_radius=0.5, seed=21)
    return MovingObjectsDatabase(generate_trajectories(config))


@pytest.fixture
def tiny_mod() -> MovingObjectsDatabase:
    """A hand-built four-object MOD with a known NN structure.

    The query object ``"q"`` moves east along y = 0.  Object ``"near"`` runs
    parallel 2 miles north (always nearest), ``"crossing"`` crosses the
    query's path mid-window (nearest around the crossing), and ``"far"``
    stays 30 miles away (never relevant).
    """
    trajectories = [
        straight_trajectory("q", (0.0, 0.0), (30.0, 0.0)),
        straight_trajectory("near", (0.0, 2.0), (30.0, 2.0)),
        straight_trajectory("crossing", (15.0, -20.0), (15.0, 20.0)),
        straight_trajectory("far", (0.0, 30.0), (30.0, 30.0)),
    ]
    return MovingObjectsDatabase(trajectories)
