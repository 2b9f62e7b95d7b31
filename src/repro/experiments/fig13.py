"""Figure 13: pruning power of the lower envelope as a function of the uncertainty radius.

The paper varies the uncertainty radius from 0.1 to 2 miles, fixes the
population to 2,000 and 10,000 objects, and reports the fraction of objects
that still require probability integration after the 4r-band pruning (the
complement of the pruning ratio).  At r = 0.5 mile over 90% of the objects
are pruned; at r = 1 mile about 85% are.  The fraction grows with the radius
and is slightly smaller for the larger population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..core.pruning import prune_by_band
from ..reference.envelope import le_alg
from ..trajectories.difference import difference_distance_functions
from ..workloads.random_waypoint import RandomWaypointConfig, generate_trajectories
from .config import Figure13Config
from .report import format_table


@dataclass(frozen=True, slots=True)
class Figure13Row:
    """One sweep point of Figure 13."""

    num_objects: int
    uncertainty_radius: float
    integration_fraction: float

    @property
    def pruned_fraction(self) -> float:
        """Fraction of objects eliminated by the band pruning."""
        return 1.0 - self.integration_fraction


def run_figure13(config: Figure13Config | None = None) -> List[Figure13Row]:
    """Run the Figure 13 sweep and return one row per (population, radius)."""
    if config is None:
        config = Figure13Config()
    rows: List[Figure13Row] = []
    rng = np.random.default_rng(config.seed)

    for num_objects in config.object_counts:
        for radius in config.radii_miles:
            workload = RandomWaypointConfig(
                num_objects=num_objects,
                uncertainty_radius=radius,
                seed=config.seed,
            )
            trajectories = generate_trajectories(workload)
            band_width = 4.0 * radius

            fractions = []
            query_indices = rng.integers(
                0, len(trajectories), config.queries_per_setting
            )
            for query_index in query_indices:
                query = trajectories[int(query_index)]
                candidates = [
                    trajectory
                    for trajectory in trajectories
                    if trajectory.object_id != query.object_id
                ]
                functions = difference_distance_functions(
                    candidates, query, query.start_time, query.end_time
                )
                envelope = le_alg(functions, query.start_time, query.end_time)
                _, statistics = prune_by_band(
                    functions,
                    envelope,
                    band_width,
                    query.start_time,
                    query.end_time,
                )
                fractions.append(statistics.survival_ratio)
            rows.append(
                Figure13Row(num_objects, radius, float(np.mean(fractions)))
            )
    return rows


def figure13_table(rows: List[Figure13Row]) -> str:
    """Render the Figure 13 series as a text table."""
    table_rows = [
        (
            row.num_objects,
            row.uncertainty_radius,
            row.integration_fraction,
            row.pruned_fraction,
        )
        for row in rows
    ]
    return format_table(
        [
            "N objects",
            "radius (miles)",
            "integration fraction",
            "pruned fraction",
        ],
        table_rows,
        title="Figure 13 — pruning power of the lower envelope",
    )


def main(paper_scale: bool = False) -> str:
    """Run the experiment and return (and print) its table."""
    config = Figure13Config.paper() if paper_scale else Figure13Config()
    table = figure13_table(run_figure13(config))
    print(table)
    return table
