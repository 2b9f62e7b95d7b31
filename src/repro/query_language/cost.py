"""The planner's cost model: a columnar-stat-driven access choice.

One decision is made per compiled plan, fed by :class:`StoreStats` read
off the MOD's :class:`~repro.trajectories.columnar.ColumnarStore`:
build/probe the spatio-temporal index (corridor filtering) or scan every
stored trajectory.  Filtering is provably answer-preserving, so this is
purely a cost call: below :attr:`CostModel.index_min_objects` stored
objects (or :attr:`CostModel.index_min_segments` segments) the bulk-load +
probe overhead exceeds the envelope work it saves.  Every group then runs
on the executor's one :class:`~repro.engine.QueryEngine`.

The decision is recorded with a human-readable reason, which the plan
tree surfaces through ``explain_plan``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..trajectories.mod import MovingObjectsDatabase


@dataclass(frozen=True)
class StoreStats:
    """Columnar-store statistics the cost model prices plans with.

    Attributes:
        object_count: stored trajectories.
        segment_count: stored polyline segments (samples minus objects).
    """

    object_count: int
    segment_count: int

    @classmethod
    def from_mod(cls, mod: "MovingObjectsDatabase") -> "StoreStats":
        """Read stats off a MOD's columnar store (changelog-synced)."""
        store = mod.columnar()
        pack = store.pack()
        object_count = len(store)
        return cls(
            object_count=object_count,
            segment_count=max(0, pack.sample_count - object_count),
        )


@dataclass(frozen=True)
class AccessDecision:
    """Index-vs-scan choice for corridor filtering."""

    use_index: bool
    reason: str

    @property
    def index_kind(self) -> Optional[str]:
        """Engine-constructor index argument implementing the choice."""
        return "rtree" if self.use_index else None

    @property
    def access(self) -> str:
        """Plan-tree access label."""
        return "rtree-corridor" if self.use_index else "full-scan"


@dataclass(frozen=True)
class CostModel:
    """Threshold-based plan costing (documented in ``docs/query-planner.md``).

    Attributes:
        index_min_objects: minimum stored objects before corridor
            filtering pays for the index probe.
        index_min_segments: minimum stored segments before bulk-loading
            the index beats scanning them outright.
    """

    index_min_objects: int = 8
    index_min_segments: int = 64

    def choose_access(self, stats: StoreStats) -> AccessDecision:
        """Index-filter or full-scan, from store size alone."""
        if stats.object_count < self.index_min_objects:
            return AccessDecision(
                use_index=False,
                reason=(
                    f"{stats.object_count} objects < "
                    f"index_min_objects={self.index_min_objects}"
                ),
            )
        if stats.segment_count < self.index_min_segments:
            return AccessDecision(
                use_index=False,
                reason=(
                    f"{stats.segment_count} segments < "
                    f"index_min_segments={self.index_min_segments}"
                ),
            )
        return AccessDecision(
            use_index=True,
            reason=(
                f"{stats.object_count} objects / {stats.segment_count} "
                "segments justify corridor filtering"
            ),
        )


#: The default thresholds every executor starts from.
DEFAULT_COST_MODEL = CostModel()
