"""Figure 11: running time of lower-envelope construction, naive vs divide-and-conquer.

The paper varies the number of moving objects from 1,000 to 12,000 and plots
the construction time of the lower envelope of the distance functions for
the naive (all-pairwise-intersections) approach against Algorithm 1
(divide-and-conquer), on a log scale.  The divide-and-conquer construction
is orders of magnitude faster and the gap widens with N — that is the shape
this runner reproduces.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List

from ..reference.envelope import le_alg
from ..reference.naive import naive_lower_envelope
from ..trajectories.difference import difference_distance_functions
from ..workloads.random_waypoint import RandomWaypointConfig, generate_trajectories
from .config import Figure11Config
from .report import format_table


@dataclass(frozen=True, slots=True)
class Figure11Row:
    """One sweep point of Figure 11."""

    num_objects: int
    naive_seconds: float
    divide_conquer_seconds: float

    @property
    def speedup(self) -> float:
        """How much faster the divide-and-conquer construction is."""
        if self.divide_conquer_seconds <= 0:
            return math.inf
        return self.naive_seconds / self.divide_conquer_seconds


def run_figure11(config: Figure11Config | None = None) -> List[Figure11Row]:
    """Run the Figure 11 sweep and return one row per object count."""
    if config is None:
        config = Figure11Config()
    rows: List[Figure11Row] = []
    for num_objects in config.object_counts:
        workload = RandomWaypointConfig(
            num_objects=num_objects + 1,
            uncertainty_radius=config.uncertainty_radius,
            seed=config.seed,
        )
        trajectories = generate_trajectories(workload)
        query = trajectories[0]
        candidates = trajectories[1:]
        functions = difference_distance_functions(
            candidates, query, query.start_time, query.end_time
        )

        start = time.perf_counter()
        naive_lower_envelope(functions, query.start_time, query.end_time)
        naive_seconds = time.perf_counter() - start

        start = time.perf_counter()
        le_alg(functions, query.start_time, query.end_time)
        divide_conquer_seconds = time.perf_counter() - start

        rows.append(Figure11Row(num_objects, naive_seconds, divide_conquer_seconds))
    return rows


def figure11_table(rows: List[Figure11Row]) -> str:
    """Render the Figure 11 series as a text table (log-time columns included)."""
    table_rows = [
        (
            row.num_objects,
            row.naive_seconds,
            row.divide_conquer_seconds,
            math.log10(row.naive_seconds) if row.naive_seconds > 0 else float("-inf"),
            math.log10(row.divide_conquer_seconds)
            if row.divide_conquer_seconds > 0
            else float("-inf"),
            row.speedup,
        )
        for row in rows
    ]
    return format_table(
        [
            "N objects",
            "naive (s)",
            "divide&conquer (s)",
            "log10 naive",
            "log10 d&c",
            "speedup",
        ],
        table_rows,
        title="Figure 11 — lower envelope construction time",
    )


def main(paper_scale: bool = False) -> str:
    """Run the experiment and return (and print) its table."""
    config = Figure11Config.paper() if paper_scale else Figure11Config()
    table = figure11_table(run_figure11(config))
    print(table)
    return table
