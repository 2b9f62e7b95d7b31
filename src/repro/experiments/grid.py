"""Uniform grid index over (x, y) space with per-cell time filtering.

A simple, predictable spatial index: the region of interest is divided into
``cells × cells`` equal squares and every (expanded) segment box is
registered in all cells it overlaps.  Probing with a box returns the object
ids whose entries overlap it.  The grid is the other side of the index
ablation (A3) from the store's segment box table, and a second reference
the table's box probes are tested against.  No serving path probes it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..reference.boxes import Box3D, IndexEntry, segment_boxes
from ..trajectories.trajectory import Trajectory


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
        self._count += 1

    def insert_trajectory(self, trajectory: Trajectory) -> None:
        """Register every segment of a trajectory."""
        for entry in segment_boxes(trajectory, max_extent=self._max_box_extent):
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
