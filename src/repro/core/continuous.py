"""High-level façade: continuous probabilistic NN queries over a MOD.

:class:`ContinuousProbabilisticNNQuery` is the public entry point most users
need.  It glues together the pieces of the pipeline in the order the paper
prescribes:

1. build the difference distance functions of the candidates with respect to
   the query trajectory (Section 3.2);
2. build the level-1 lower envelope and the pruning band (Algorithm 1/2);
3. answer the Section 4 query variants, construct the IPAC-NN tree
   (Algorithm 3), and — when asked — materialize probability descriptors.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..trajectories.mod import MovingObjectsDatabase
from .answer import IPACTree
from .descriptors import annotate_tree
from .queries import QueryContext
from .thresholds import ThresholdQueryResult, continuous_threshold_nn_query


class ContinuousProbabilisticNNQuery:
    """A continuous probabilistic NN query ``UQ_nn(q, [t_start, t_end])``.

    Args:
        mod: the moving objects database.
        query_id: id of the query trajectory (must be stored in ``mod``).
        t_start: query window start.
        t_end: query window end.
        band_width: pruning band width; defaults to ``4r`` computed from the
            query's and candidates' pdf supports (``2·(support_i + support_q)``).
        candidate_ids: explicit candidate restriction; every other stored
            object when ``None``.  :class:`~repro.engine.QueryEngine` is the
            index-filtered path.
    """

    def __init__(
        self,
        mod: MovingObjectsDatabase,
        query_id: object,
        t_start: float,
        t_end: float,
        band_width: Optional[float] = None,
        candidate_ids: Optional[Sequence[object]] = None,
    ):
        if t_end < t_start:
            raise ValueError(f"empty query window [{t_start}, {t_end}]")
        self.mod = mod
        self.query = mod.get(query_id)
        self.t_start = t_start
        self.t_end = t_end

        if band_width is None:
            band_width = self._default_band_width()
        if band_width < 0:
            raise ValueError("band width must be non-negative")
        self.band_width = band_width

        functions = mod.distance_functions(
            query_id, t_start, t_end, candidate_ids=candidate_ids
        )
        if not functions:
            raise ValueError(
                "no candidate trajectories cover the query window; "
                "check the window or the candidate filter"
            )
        self.context = QueryContext.build(
            functions, query_id, t_start, t_end, band_width
        )

    # ------------------------------------------------------------------
    # Defaults.
    # ------------------------------------------------------------------

    def _default_band_width(self) -> float:
        """``2·(support_i + support_q)`` maximized over the stored pdfs (= 4r)."""
        return self.mod.default_band_width(self.query.object_id)

    # ------------------------------------------------------------------
    # Category 1 (single trajectory).
    # ------------------------------------------------------------------

    def has_nonzero_probability_sometime(self, object_id: object) -> bool:
        """UQ11: non-zero NN probability at some time in the window."""
        return self.context.uq11_sometime(object_id)

    def has_nonzero_probability_always(self, object_id: object) -> bool:
        """UQ12: non-zero NN probability throughout the window."""
        return self.context.uq12_always(object_id)

    def nonzero_probability_fraction(self, object_id: object) -> float:
        """Fraction of the window with non-zero NN probability."""
        return self.context.uq13_fraction(object_id)

    def has_nonzero_probability_at_least(self, object_id: object, fraction: float) -> bool:
        """UQ13: non-zero NN probability for at least ``fraction`` of the window."""
        return self.context.uq13_at_least(object_id, fraction)

    def nonzero_probability_intervals(self, object_id: object) -> List[Tuple[float, float]]:
        """Exact sub-intervals with non-zero NN probability for a candidate."""
        return self.context.nonzero_probability_intervals(object_id)

    # ------------------------------------------------------------------
    # Category 2 (single trajectory, rank k).
    # ------------------------------------------------------------------

    def is_ranked_within_sometime(self, object_id: object, k: int) -> bool:
        """UQ21: within the top-k ranking at some time."""
        return self.context.uq21_rank_sometime(object_id, k)

    def is_ranked_within_always(self, object_id: object, k: int) -> bool:
        """UQ22: within the top-k ranking throughout the window."""
        return self.context.uq22_rank_always(object_id, k)

    def ranked_within_fraction(self, object_id: object, k: int) -> float:
        """Fraction of the window the object spends within the top-k ranking."""
        return self.context.uq23_rank_fraction(object_id, k)

    def is_ranked_within_at_least(self, object_id: object, k: int, fraction: float) -> bool:
        """UQ23: within the top-k ranking at least ``fraction`` of the window."""
        return self.context.uq23_rank_at_least(object_id, k, fraction)

    # ------------------------------------------------------------------
    # Category 3 / 4 (whole MOD).
    # ------------------------------------------------------------------

    def all_with_nonzero_probability_sometime(self) -> List[object]:
        """UQ31: all trajectories with non-zero NN probability at some time."""
        return self.context.uq31_all_sometime()

    def all_with_nonzero_probability_always(self) -> List[object]:
        """UQ32: all trajectories with non-zero NN probability throughout."""
        return self.context.uq32_all_always()

    def all_with_nonzero_probability_at_least(self, fraction: float) -> List[object]:
        """UQ33: all trajectories with non-zero NN probability a fraction of the time."""
        return self.context.uq33_all_at_least(fraction)

    def all_ranked_within_sometime(self, k: int) -> List[object]:
        """Category 4 (∃t): trajectories within the top k at some time."""
        return self.context.uq41_all_rank_sometime(k)

    def all_ranked_within_always(self, k: int) -> List[object]:
        """Category 4 (∀t): trajectories within the top k throughout."""
        return self.context.uq42_all_rank_always(k)

    def all_ranked_within_at_least(self, k: int, fraction: float) -> List[object]:
        """Category 4 (X%): trajectories within the top k a fraction of the time."""
        return self.context.uq43_all_rank_at_least(k, fraction)

    # ------------------------------------------------------------------
    # Fixed-time variants, answers, extensions.
    # ------------------------------------------------------------------

    def candidates_at(self, t: float) -> List[object]:
        """Trajectories with non-zero NN probability at the fixed time ``t``."""
        return self.context.candidates_at(t)

    def ranking_at(self, t: float, k: int = 3) -> List[object]:
        """Top-k candidate ranking at the fixed time ``t``."""
        return self.context.ranking_at(t, k)

    def answer_tree(
        self,
        max_levels: Optional[int] = None,
        with_descriptors: bool = False,
        descriptor_samples: int = 3,
    ) -> IPACTree:
        """The IPAC-NN tree for this query (optionally annotated with descriptors)."""
        tree = self.context.ipac_tree(max_levels=max_levels)
        if with_descriptors:
            annotate_tree(tree, self.mod, samples=descriptor_samples)
        return tree

    def threshold_query(
        self,
        probability_threshold: float,
        min_time_fraction: float,
        time_samples: int = 8,
    ) -> List[ThresholdQueryResult]:
        """Continuous threshold NN query (the paper's future-work extension)."""
        return continuous_threshold_nn_query(
            self.context,
            self.mod,
            probability_threshold,
            min_time_fraction,
            time_samples=time_samples,
        )

    def pruning_statistics(self):
        """Band pruning statistics for this query (Figure 13 quantity)."""
        return self.context.pruning_statistics()
