"""Core contribution: IPAC-NN trees, pruning, ranking, and the query variants."""

from .answer import IPACNode, IPACTree, ProbabilityDescriptor
from .descriptors import annotate_tree, compute_descriptor
from .ipacnn import build_ipac_tree
from .reverse import (
    ReverseNNResult,
    all_pairs_nn_matrix,
    mutual_nn_pairs,
    reverse_nn_query,
)
from .pruning import (
    PruningStatistics,
    band_intervals,
    band_intervals_batch,
    is_within_band_sometime,
    prune_by_band,
    time_within_band,
)
from .queries import QueryContext
from .ranking import (
    RankingComparison,
    expected_distances_at,
    monte_carlo_ranking,
    nn_probability_matrix,
    nn_probability_snapshot,
    ranking_by_expected_distance,
    ranking_by_nn_probability,
    validate_theorem1,
)
from .thresholds import (
    ThresholdQueryResult,
    continuous_threshold_nn_query,
    probability_timeline,
)

__all__ = [
    "IPACNode",
    "ReverseNNResult",
    "all_pairs_nn_matrix",
    "mutual_nn_pairs",
    "reverse_nn_query",
    "IPACTree",
    "ProbabilityDescriptor",
    "PruningStatistics",
    "QueryContext",
    "RankingComparison",
    "ThresholdQueryResult",
    "annotate_tree",
    "band_intervals",
    "band_intervals_batch",
    "build_ipac_tree",
    "compute_descriptor",
    "continuous_threshold_nn_query",
    "expected_distances_at",
    "is_within_band_sometime",
    "monte_carlo_ranking",
    "nn_probability_matrix",
    "nn_probability_snapshot",
    "probability_timeline",
    "prune_by_band",
    "ranking_by_expected_distance",
    "ranking_by_nn_probability",
    "time_within_band",
    "validate_theorem1",
]
