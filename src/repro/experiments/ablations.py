"""Ablation experiments supporting the design choices called out in DESIGN.md.

These are not figures of the paper; they validate or stress the pieces the
paper's claims rest on:

* **A1 (ranking)** — Theorem 1 in practice: does the expected-distance
  ranking agree with the numerically-evaluated (and Monte-Carlo) NN
  probability ranking?
* **A2 (segments)** — how does the envelope construction scale with the
  number of segments per trajectory (the "multiply by m" remark closing
  Section 3.2)?
* **A3 (index)** — how many candidates does a spatio-temporal index
  pre-filter remove before the envelope machinery even runs?
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

import numpy as np

from ..core.ranking import validate_theorem1
from ..reference.envelope import le_alg
from ..trajectories.difference import difference_distance_functions
from ..trajectories.mod import MovingObjectsDatabase
from ..workloads.random_waypoint import RandomWaypointConfig, generate_trajectories
from .grid import GridIndex
from .report import format_table


# ----------------------------------------------------------------------
# A1: Theorem 1 validation.
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RankingAblationRow:
    """Agreement between distance ranking and probability ranking at one instant."""

    num_objects: int
    pdf_family: str
    time_instant: float
    top_k: int
    agreement_prefix: int
    agrees: bool


def run_ranking_ablation(
    object_counts: List[int] | None = None,
    pdf_families: List[str] | None = None,
    top_k: int = 3,
    seed: int = 7,
) -> List[RankingAblationRow]:
    """Compare Theorem 1's ranking with the numeric probability ranking."""
    if object_counts is None:
        object_counts = [8, 16]
    if pdf_families is None:
        pdf_families = ["uniform", "gaussian"]
    rows: List[RankingAblationRow] = []
    for num_objects in object_counts:
        for family in pdf_families:
            workload = RandomWaypointConfig(
                num_objects=num_objects + 1,
                uncertainty_radius=0.5,
                pdf_family=family,
                seed=seed,
            )
            trajectories = generate_trajectories(workload)
            mod = MovingObjectsDatabase(trajectories)
            query_id = trajectories[0].object_id
            t = trajectories[0].start_time + 0.37 * trajectories[0].duration
            comparison = validate_theorem1(mod, query_id, t, top_k=top_k)
            rows.append(
                RankingAblationRow(
                    num_objects,
                    family,
                    t,
                    top_k,
                    comparison.agreement_prefix,
                    comparison.agrees,
                )
            )
    return rows


def ranking_ablation_table(rows: List[RankingAblationRow]) -> str:
    """Render the ranking ablation as a text table."""
    return format_table(
        ["N objects", "pdf", "t", "top-k", "agreement prefix", "agrees"],
        [
            (
                row.num_objects,
                row.pdf_family,
                row.time_instant,
                row.top_k,
                row.agreement_prefix,
                row.agrees,
            )
            for row in rows
        ],
        title="Ablation A1 — Theorem 1: distance ranking vs probability ranking",
    )


# ----------------------------------------------------------------------
# A2: segments per trajectory.
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SegmentsAblationRow:
    """Envelope construction cost as trajectories gain segments."""

    num_objects: int
    segments_per_trajectory: int
    envelope_pieces: int
    construction_seconds: float


def run_segments_ablation(
    num_objects: int = 100,
    segment_counts: List[int] | None = None,
    seed: int = 7,
) -> List[SegmentsAblationRow]:
    """Measure envelope size/cost as the per-trajectory segment count grows."""
    if segment_counts is None:
        segment_counts = [1, 2, 4, 8]
    rows: List[SegmentsAblationRow] = []
    for segments in segment_counts:
        workload = RandomWaypointConfig(
            num_objects=num_objects + 1,
            segments_per_trajectory=segments,
            uncertainty_radius=0.5,
            seed=seed,
        )
        trajectories = generate_trajectories(workload)
        query = trajectories[0]
        functions = difference_distance_functions(
            trajectories[1:], query, query.start_time, query.end_time
        )
        start = time.perf_counter()
        envelope = le_alg(functions, query.start_time, query.end_time)
        elapsed = time.perf_counter() - start
        rows.append(
            SegmentsAblationRow(num_objects, segments, len(envelope), elapsed)
        )
    return rows


def segments_ablation_table(rows: List[SegmentsAblationRow]) -> str:
    """Render the segments ablation as a text table."""
    return format_table(
        ["N objects", "segments/trajectory", "envelope pieces", "construction (s)"],
        [
            (
                row.num_objects,
                row.segments_per_trajectory,
                row.envelope_pieces,
                row.construction_seconds,
            )
            for row in rows
        ],
        title="Ablation A2 — effect of segments per trajectory on the envelope",
    )


# ----------------------------------------------------------------------
# A3: index pre-filtering.
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class IndexAblationRow:
    """Candidate reduction achieved by index pre-filtering."""

    num_objects: int
    index_kind: str
    corridor_miles: float
    candidates_after_filter: int

    @property
    def filter_ratio(self) -> float:
        """Fraction of the population surviving the index filter."""
        if self.num_objects == 0:
            return 0.0
        return self.candidates_after_filter / self.num_objects


def run_index_ablation(
    object_counts: List[int] | None = None,
    corridor_miles: float = 5.0,
    seed: int = 7,
) -> List[IndexAblationRow]:
    """Measure how many candidates an index corridor probe retains."""
    if object_counts is None:
        object_counts = [200, 1000]
    rows: List[IndexAblationRow] = []
    for num_objects in object_counts:
        workload = RandomWaypointConfig(
            num_objects=num_objects + 1, uncertainty_radius=0.5, seed=seed
        )
        trajectories = generate_trajectories(workload)
        query = trajectories[0]
        candidates = trajectories[1:]

        window = (query.start_time, query.end_time)
        grid = GridIndex.covering(candidates, cells=32).query_corridor(
            query, corridor_miles, *window
        )
        table = MovingObjectsDatabase(candidates).build_index(max_box_extent=None)
        (scanned,) = table.probe([table.corridor_probes(query, corridor_miles, *window)])
        for kind, survivors in (("grid", grid), ("table", scanned)):
            rows.append(
                IndexAblationRow(num_objects, kind, corridor_miles, len(survivors))
            )
    return rows


def index_ablation_table(rows: List[IndexAblationRow]) -> str:
    """Render the index ablation as a text table."""
    return format_table(
        ["N objects", "index", "corridor (mi)", "candidates", "retained fraction"],
        [
            (
                row.num_objects,
                row.index_kind,
                row.corridor_miles,
                row.candidates_after_filter,
                row.filter_ratio,
            )
            for row in rows
        ],
        title="Ablation A3 — index-assisted candidate pre-filtering",
    )
