"""Uniform grid index over (x, y) space with per-cell time filtering.

A simple, predictable spatial index: the region of interest is divided into
``cells × cells`` equal squares and every (expanded) segment box is
registered in all cells it overlaps.  Probing with a box returns the object
ids whose entries overlap it.  The grid is the low-tech counterpart of the
R-tree and the reference implementation the R-tree is tested against.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.tolerances import TIME_TOLERANCE
from ..trajectories.trajectory import Trajectory
from .boxes import Box3D, IndexEntry, segment_boxes


class GridIndex:
    """Fixed-resolution spatial grid over a rectangular region."""

    def __init__(
        self,
        x_min: float,
        y_min: float,
        x_max: float,
        y_max: float,
        cells: int = 32,
        max_box_extent: float | None = None,
    ):
        if x_max <= x_min or y_max <= y_min:
            raise ValueError("the region must have positive extent")
        if cells < 1:
            raise ValueError("the grid needs at least one cell per axis")
        self._max_box_extent = max_box_extent
        self._x_min = x_min
        self._y_min = y_min
        self._x_max = x_max
        self._y_max = y_max
        self._cells = cells
        self._cell_width = (x_max - x_min) / cells
        self._cell_height = (y_max - y_min) / cells
        self._buckets: Dict[Tuple[int, int], List[IndexEntry]] = defaultdict(list)
        self._count = 0
        self._entries_per_object: Dict[object, int] = defaultdict(int)
        self._cells_per_object: Dict[object, Set[Tuple[int, int]]] = defaultdict(set)

    def __len__(self) -> int:
        return self._count

    @property
    def cells(self) -> int:
        """Number of cells per axis."""
        return self._cells

    def insert_entry(self, entry: IndexEntry) -> None:
        """Register one (box, object id) entry."""
        for key in self._cells_overlapping(entry.box):
            self._buckets[key].append(entry)
            self._cells_per_object[entry.object_id].add(key)
        self._count += 1
        self._entries_per_object[entry.object_id] += 1

    def remove_object(
        self, object_id: object, after: Optional[float] = None
    ) -> int:
        """Retire entries of one object; returns how many were removed.

        Only the cells the object occupies are touched.  Trajectories
        extending beyond the grid region are registered in the clamped
        border cells, so their entries are found and removed too.

        Args:
            after: only retire boxes starting at or after this time (the
                divergence-bounded retirement used by streamed extensions).
        """
        cells = self._cells_per_object.get(object_id)
        if not cells:
            return 0
        removed_ids: Set[int] = set()
        remaining_cells: Set[Tuple[int, int]] = set()
        for key in cells:
            bucket = self._buckets.get(key, [])
            kept = []
            for entry in bucket:
                if entry.object_id == object_id and (
                    after is None or entry.box.t_min >= after - TIME_TOLERANCE
                ):
                    removed_ids.add(id(entry))
                else:
                    kept.append(entry)
                    if entry.object_id == object_id:
                        remaining_cells.add(key)
            if kept:
                self._buckets[key] = kept
            else:
                self._buckets.pop(key, None)
        removed = len(removed_ids)
        self._count -= removed
        remaining_entries = self._entries_per_object.get(object_id, 0) - removed
        if remaining_entries > 0:
            self._entries_per_object[object_id] = remaining_entries
            self._cells_per_object[object_id] = remaining_cells
        else:
            self._entries_per_object.pop(object_id, None)
            self._cells_per_object.pop(object_id, None)
        return removed

    def insert_trajectory(
        self,
        trajectory: Trajectory,
        spatial_margin: float | None = None,
        after: Optional[float] = None,
    ) -> None:
        """Register every segment of a trajectory.

        Args:
            after: only register boxes starting at or after this time — the
                complement of ``remove_object(..., after=...)``.
        """
        for entry in segment_boxes(
            trajectory, spatial_margin, max_extent=self._max_box_extent
        ):
            if after is not None and entry.box.t_min < after - TIME_TOLERANCE:
                continue
            self.insert_entry(entry)

    def patch(self, changed: Mapping[object, Optional[float]], store) -> None:
        """Apply one store change set entry by entry (see ``STRRTree.patch``)."""
        for object_id, after in changed.items():
            self.remove_object(object_id, after=after)
        for entry in store.boxes_since(changed, self._max_box_extent).entries():
            self.insert_entry(entry)

    def insert_all(self, trajectories: Iterable[Trajectory]) -> None:
        """Register several trajectories."""
        for trajectory in trajectories:
            self.insert_trajectory(trajectory)

    def query_box(self, box: Box3D) -> Set[object]:
        """Object ids whose entries overlap the probe box."""
        found: Set[object] = set()
        for key in self._cells_overlapping(box):
            for entry in self._buckets.get(key, ()):  # pragma: no branch
                if entry.object_id not in found and entry.box.intersects(box):
                    found.add(entry.object_id)
        return found

    def query_corridor(
        self,
        trajectory: Trajectory,
        distance: float,
        t_lo: float,
        t_hi: float,
    ) -> Set[object]:
        """Objects possibly within ``distance`` of a trajectory during a window.

        Probes the grid with one expanded box per query segment — a coarse
        but safe over-approximation used to pre-filter NN candidates before
        the envelope machinery runs.
        """
        if distance < 0:
            raise ValueError("corridor distance must be non-negative")
        clipped = trajectory.clipped(
            max(t_lo, trajectory.start_time), min(t_hi, trajectory.end_time)
        )
        probe_extent = (
            None
            if self._max_box_extent is None
            else max(self._max_box_extent, distance)
        )
        found: Set[object] = set()
        for entry in segment_boxes(clipped, spatial_margin=0.0, max_extent=probe_extent):
            probe = entry.box.expanded(distance)
            found.update(self.query_box(probe))
        found.discard(trajectory.object_id)
        return found

    def _cells_overlapping(self, box: Box3D) -> List[Tuple[int, int]]:
        """Grid cell keys whose square overlaps the box's spatial footprint."""
        col_lo = self._clamp_col(box.x_min)
        col_hi = self._clamp_col(box.x_max)
        row_lo = self._clamp_row(box.y_min)
        row_hi = self._clamp_row(box.y_max)
        return [
            (col, row)
            for col in range(col_lo, col_hi + 1)
            for row in range(row_lo, row_hi + 1)
        ]

    def _clamp_col(self, x: float) -> int:
        col = int(math.floor((x - self._x_min) / self._cell_width))
        return min(self._cells - 1, max(0, col))

    def _clamp_row(self, y: float) -> int:
        row = int(math.floor((y - self._y_min) / self._cell_height))
        return min(self._cells - 1, max(0, row))

    @staticmethod
    def covering(
        trajectories: Sequence[Trajectory],
        cells: int = 32,
        margin: float = 1.0,
        max_box_extent: float | None = None,
    ) -> "GridIndex":
        """Build a grid whose region covers all the given trajectories."""
        if not trajectories:
            raise ValueError("need at least one trajectory to size the grid")
        bounds = [t.spatial_bounds() for t in trajectories]
        x_min = min(b[0] for b in bounds) - margin
        y_min = min(b[1] for b in bounds) - margin
        x_max = max(b[2] for b in bounds) + margin
        y_max = max(b[3] for b in bounds) + margin
        index = GridIndex(
            x_min, y_min, x_max, y_max, cells=cells, max_box_extent=max_box_extent
        )
        index.insert_all(trajectories)
        return index
