"""Figure 12: existential (UQ11) and quantitative (UQ13) query time, naive vs envelope-based.

The paper fixes X = 50% for the quantitative query, varies the population
from 1,000 to 12,000 objects, picks 100 random target objects, and compares
the envelope-based processing (after the O(N log N) pre-processing) against
the naive approach that inspects all pairwise intersection times per query.
The envelope-based processing is orders of magnitude faster; quantitative
queries cost a bit more than existential ones under both approaches.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List

import numpy as np

from ..core.queries import QueryContext
from ..reference.naive import naive_uq11_sometime, naive_uq13_fraction
from ..trajectories.difference import difference_distance_functions
from ..workloads.random_waypoint import RandomWaypointConfig, generate_trajectories
from .config import Figure12Config
from .report import format_table


@dataclass(frozen=True, slots=True)
class Figure12Row:
    """One sweep point of Figure 12 (average seconds per query)."""

    num_objects: int
    naive_existential: float
    envelope_existential: float
    naive_quantitative: float
    envelope_quantitative: float

    @property
    def existential_speedup(self) -> float:
        """Speedup of the envelope-based existential query."""
        if self.envelope_existential <= 0:
            return math.inf
        return self.naive_existential / self.envelope_existential

    @property
    def quantitative_speedup(self) -> float:
        """Speedup of the envelope-based quantitative query."""
        if self.envelope_quantitative <= 0:
            return math.inf
        return self.naive_quantitative / self.envelope_quantitative


def run_figure12(config: Figure12Config | None = None) -> List[Figure12Row]:
    """Run the Figure 12 sweep and return one row per object count."""
    if config is None:
        config = Figure12Config()
    rng = np.random.default_rng(config.seed)
    rows: List[Figure12Row] = []

    for num_objects in config.object_counts:
        workload = RandomWaypointConfig(
            num_objects=num_objects + 1,
            uncertainty_radius=config.uncertainty_radius,
            seed=config.seed,
        )
        trajectories = generate_trajectories(workload)
        query = trajectories[0]
        candidates = trajectories[1:]
        t_lo, t_hi = query.start_time, query.end_time
        functions = difference_distance_functions(candidates, query, t_lo, t_hi)
        band_width = 4.0 * config.uncertainty_radius

        # Envelope-based processing amortizes the O(N log N) construction
        # across all queries — exactly the regime the paper measures.
        context = QueryContext.build(functions, query.object_id, t_lo, t_hi, band_width)

        target_ids = [
            functions[int(index)].object_id
            for index in rng.integers(0, len(functions), config.queries_per_count)
        ]

        naive_existential = 0.0
        envelope_existential = 0.0
        naive_quantitative = 0.0
        envelope_quantitative = 0.0
        for target_id in target_ids:
            start = time.perf_counter()
            naive_uq11_sometime(functions, target_id, t_lo, t_hi, band_width)
            naive_existential += time.perf_counter() - start

            start = time.perf_counter()
            context.uq11_sometime(target_id)
            envelope_existential += time.perf_counter() - start

            start = time.perf_counter()
            naive_uq13_fraction(functions, target_id, t_lo, t_hi, band_width)
            naive_quantitative += time.perf_counter() - start

            start = time.perf_counter()
            context.uq13_at_least(target_id, config.quantitative_fraction)
            envelope_quantitative += time.perf_counter() - start

        count = len(target_ids)
        rows.append(
            Figure12Row(
                num_objects,
                naive_existential / count,
                envelope_existential / count,
                naive_quantitative / count,
                envelope_quantitative / count,
            )
        )
    return rows


def figure12_table(rows: List[Figure12Row]) -> str:
    """Render the Figure 12 series as a text table."""
    table_rows = [
        (
            row.num_objects,
            row.naive_existential,
            row.envelope_existential,
            row.existential_speedup,
            row.naive_quantitative,
            row.envelope_quantitative,
            row.quantitative_speedup,
        )
        for row in rows
    ]
    return format_table(
        [
            "N objects",
            "naive UQ11 (s)",
            "envelope UQ11 (s)",
            "UQ11 speedup",
            "naive UQ13 (s)",
            "envelope UQ13 (s)",
            "UQ13 speedup",
        ],
        table_rows,
        title="Figure 12 — existential and quantitative query time (avg per query)",
    )


def main(paper_scale: bool = False) -> str:
    """Run the experiment and return (and print) its table."""
    config = Figure12Config.paper() if paper_scale else Figure12Config()
    table = figure12_table(run_figure12(config))
    print(table)
    return table
