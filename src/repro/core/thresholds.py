"""Continuous *threshold* NN queries — the paper's future-work extension.

Section 7 sketches queries of the form "retrieve the objects that have more
than 65% probability of being a nearest neighbor within 50% of the time".
Answering them needs actual probability values, not just ranking, so this
module combines the band-based candidate filtering (cheap) with sampled
instantaneous NN probabilities (Eq. 5 on the convolved pdfs, expensive but
only evaluated for the already-filtered candidates — which is exactly the
benefit Figure 13 quantifies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..trajectories.mod import MovingObjectsDatabase
from .queries import QueryContext
from .ranking import nn_probability_matrix, probability_columns


@dataclass(frozen=True, slots=True)
class ThresholdQueryResult:
    """Outcome of a continuous threshold NN query for one candidate."""

    object_id: object
    fraction_above_threshold: float
    sampled_probabilities: tuple

    def satisfies(self, min_fraction: float) -> bool:
        """True when the candidate clears the required time fraction."""
        return self.fraction_above_threshold >= min_fraction - 1e-9


def continuous_threshold_nn_query(
    context: QueryContext,
    mod: MovingObjectsDatabase,
    probability_threshold: float,
    min_time_fraction: float,
    time_samples: int = 8,
    grid_size: int = 128,
) -> List[ThresholdQueryResult]:
    """Candidates whose NN probability exceeds a threshold often enough.

    Args:
        context: prepared query context (provides the band-filtered candidates).
        mod: the moving objects database (provides the pdfs and positions).
        probability_threshold: the per-instant probability bar (e.g. 0.65).
        min_time_fraction: required fraction of sampled instants above the bar
            (e.g. 0.5 for "50% of the time").
        time_samples: number of probability snapshots across the window.
        grid_size: quadrature resolution of each snapshot.

    Returns:
        Results for every candidate that clears the bar, sorted by decreasing
        fraction of time above the threshold.
    """
    if not 0.0 <= probability_threshold <= 1.0:
        raise ValueError("probability threshold must be within [0, 1]")
    if not 0.0 <= min_time_fraction <= 1.0:
        raise ValueError("time fraction must be within [0, 1]")
    if time_samples < 1:
        raise ValueError("need at least one time sample")

    survivors = [function.object_id for function in context.survivors()]
    if not survivors:
        return []

    offsets = (np.arange(time_samples) + 0.5) / time_samples
    times = context.t_start + offsets * max(context.duration, 0.0)

    ids, matrix = nn_probability_matrix(mod, context.query_id, times, grid_size=grid_size)
    per_object = probability_columns(ids, matrix, survivors)

    results = []
    for object_id, probabilities in per_object.items():
        above = sum(1 for p in probabilities if p > probability_threshold)
        fraction = above / len(probabilities)
        result = ThresholdQueryResult(
            object_id, fraction, tuple(probabilities)
        )
        if result.satisfies(min_time_fraction):
            results.append(result)
    results.sort(key=lambda result: -result.fraction_above_threshold)
    return results


def probability_timeline(
    context: QueryContext,
    mod: MovingObjectsDatabase,
    object_ids: Sequence[object],
    time_samples: int = 16,
    grid_size: int = 128,
) -> Dict[object, List[float]]:
    """Sampled NN-probability time series for selected candidates.

    Useful for example applications and for eyeballing descriptor quality;
    the sampling grid is shared across all requested candidates so the series
    are directly comparable.
    """
    if time_samples < 2:
        raise ValueError("need at least two time samples")
    times = np.linspace(context.t_start, context.t_end, time_samples)
    ids, matrix = nn_probability_matrix(mod, context.query_id, times, grid_size=grid_size)
    return probability_columns(ids, matrix, object_ids)
