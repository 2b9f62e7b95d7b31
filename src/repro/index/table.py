"""A flat table of segment boxes in (x, y, t) space, scanned once per batch.

The paper builds difference functions only for objects that can come within
the corridor of the query (Section 3.2); this module is the filter that
finds them.  It holds the segment boxes of a trajectory set (expanded by the
uncertainty radius) as flat NumPy columns — ``lo``/``hi`` corners as (3, n)
coordinate rows, an owner slot and a live flag per row — and answers
box-intersection probes by scanning them.  Its rows and its corridor probes
come from one leg kernel (:mod:`repro.trajectories.columnar`), pinned to
the scalar loop of :func:`repro.reference.boxes.segment_boxes`.

The corridor of a query is wide next to the fleet's spread, so a tree
descent still tests thousands of rows and keeps a large share of the
objects; a scan of the rows whose time span meets the batch window, with
every query's probe boxes tested in one pass, costs less than one descent
per query and needs no tree levels (``docs/performance.md``).

The streaming layer needs *incremental maintenance*, and a store's change
set (one :meth:`SegmentBoxTable.patch` per revision) only flips live flags
(tombstones) and appends rows to a spare block behind the table.  When the
appended rows outgrow the spare block, or the dead rows ``1 /
_SLACK_SHARE`` of the live ones, the table compacts its live rows, so a
scan stays within a constant factor of a fresh load's.  A probe's answer
depends on the live entry set alone, never on how the rows are arranged.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.tolerances import TIME_TOLERANCE
from ..trajectories.columnar import SegmentBoxArrays, _leg_boxes
from ..trajectories.trajectory import Trajectory

#: Spare rows per live row a load leaves for appends, and dead rows per live
#: row tolerated before the table compacts itself.
_SLACK_SHARE = 8

#: (row, probe) pairs one pass of :meth:`SegmentBoxTable.probe` compares.
_PAIR_BUDGET = 1 << 21

#: One member's probe boxes: ``(lo, hi)`` corner arrays of shape (3, k).
Probes = Tuple[np.ndarray, np.ndarray]


def _corners(boxes: SegmentBoxArrays) -> Probes:
    """``(lo, hi)`` corner arrays of shape (3, n)."""
    lo = np.stack((boxes.x_min, boxes.y_min, boxes.t_min))
    hi = np.stack((boxes.x_max, boxes.y_max, boxes.t_max))
    return lo, hi


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The runs ``first[i] : first[i] + count[i]`` concatenated in order."""
    ends = np.cumsum(count)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(first - (ends - count), count)


class SegmentBoxTable:
    """Segment boxes as flat columns, with tombstones and an appended block.

    Args:
        boxes: the boxes to load, as the columnar
            :class:`~repro.trajectories.columnar.SegmentBoxArrays` of a bulk
            build.
        max_box_extent: the segment subdivision the boxes were built with;
            reused for patches and query-side probes.
    """

    def __init__(self, boxes: SegmentBoxArrays, max_box_extent: Optional[float] = None):
        self._max_box_extent = max_box_extent
        self._ids: List[object] = []
        self._slot_of: Dict[object, int] = {}
        #: Times the table compacted its live rows because its appended or
        #: dead rows outgrew their share.
        self.compactions = 0
        self._load(*self._columns(boxes))

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    def _columns(self, boxes: SegmentBoxArrays) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo, hi, owner)`` rows of some boxes, owners as slots of this table."""
        for object_id in boxes.ids:
            if object_id not in self._slot_of:
                self._slot_of[object_id] = len(self._ids)
                self._ids.append(object_id)
        slots = np.array(
            [self._slot_of[object_id] for object_id in boxes.ids], dtype=np.int64
        )
        return (*_corners(boxes), slots[boxes.owner_slots])

    def _load(self, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray) -> None:
        """Make ``(lo, hi, owner)`` the table's rows, all live, plus a spare block."""
        spare = len(owner) // _SLACK_SHARE
        self._lo = np.concatenate((lo, np.empty((3, spare))), axis=1)
        self._hi = np.concatenate((hi, np.empty((3, spare))), axis=1)
        self._owner = np.concatenate((owner, np.empty(spare, dtype=np.int64)))
        self._alive = np.ones(len(self._owner), dtype=bool)
        self._size = self._loaded = self._count = len(owner)
        self._by_owner: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Incremental maintenance.
    # ------------------------------------------------------------------

    def patch(self, changed: Mapping[object, Optional[float]], store) -> None:
        """Apply a store's change set (ids to divergence times) in place.

        One tombstone pass retires each changed object's boxes starting at
        or after its time (its loaded rows found through an owner-sorted
        view of them, sorted once per load; the appended block read whole),
        then the column store's
        :meth:`~repro.trajectories.columnar.ColumnarStore.boxes_since` go in
        the spare block — or, when they do not fit or the dead rows
        outgrew their share, into a compacted copy of the live rows.
        """
        cut = np.full(len(self._ids), np.inf)
        for object_id, after in changed.items():
            slot = self._slot_of.get(object_id)
            if slot is not None:
                cut[slot] = -np.inf if after is None else after - TIME_TOLERANCE
        if self._by_owner is None:
            order = np.argsort(self._owner[: self._loaded], kind="stable")
            self._by_owner = order, np.searchsorted(self._owner[order], np.arange(len(cut) + 1))
        order, bounds = self._by_owner
        slots = np.flatnonzero(cut[: len(bounds) - 1] < np.inf)
        loaded = order[_ranges(bounds[slots], bounds[slots + 1] - bounds[slots])]
        rows = np.concatenate((loaded, np.arange(self._loaded, self._count)))
        rows = rows[self._alive[rows] & (self._lo[2, rows] >= cut[self._owner[rows]])]
        self._alive[rows] = False
        self._size -= len(rows)
        lo, hi, owner = self._columns(store.boxes_since(changed, self._max_box_extent))
        end = self._count + len(owner)
        if end > len(self._owner) or self._count - self._size > self._size // _SLACK_SHARE:
            live = np.flatnonzero(self._alive[: self._count])
            self._load(
                np.concatenate((self._lo[:, live], lo), axis=1),
                np.concatenate((self._hi[:, live], hi), axis=1),
                np.concatenate((self._owner[live], owner)),
            )
            self.compactions += 1
            return
        self._lo[:, self._count : end] = lo
        self._hi[:, self._count : end] = hi
        self._owner[self._count : end] = owner
        self._size += len(owner)
        self._count = end

    def boxes(self) -> SegmentBoxArrays:
        """The live rows in row order: the loaded rows, then the appended ones."""
        rows = np.flatnonzero(self._alive[: self._count])
        return SegmentBoxArrays(
            tuple(self._ids), self._owner[rows], *self._lo[:, rows], *self._hi[:, rows]
        )

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def probe(self, members: Sequence[Probes]) -> List[List[object]]:
        """Per member, the ids owning a live row that meets one of its boxes.

        One scan serves the batch: it selects the live rows whose time span
        meets the batch window (the members' probe boxes' time span), tests
        every probe box against them as closed boxes — ``_PAIR_BUDGET // rows``
        probes a pass — and marks each hit's (member, owner) pair in one
        members × slots mask.  A member without a probe box owns no hit.
        Each member's ids come in slot order.
        """
        found: List[List[object]] = [[] for _ in members]
        counts = [lo.shape[1] for lo, _ in members]
        if not sum(counts) or not self._size:
            return found
        probe_lo = np.concatenate([lo for lo, _ in members], axis=1)
        probe_hi = np.concatenate([hi for _, hi in members], axis=1)
        member = np.repeat(np.arange(len(members)), counts)
        count = self._count
        rows = np.flatnonzero(
            self._alive[:count]
            & (self._lo[2, :count] <= probe_hi[2].max())
            & (probe_lo[2].min() <= self._hi[2, :count])
        )
        lo, hi, owner = self._lo[:, rows], self._hi[:, rows], self._owner[rows]
        pairs = np.zeros((len(members), len(self._ids)), dtype=bool)
        step = max(1, _PAIR_BUDGET // max(1, len(rows)))
        for start in range(0, len(member), step):
            chunk = slice(start, start + step)
            hit = (lo[0] <= probe_hi[0, chunk, None]) & (probe_lo[0, chunk, None] <= hi[0])
            for axis in (1, 2):
                hit &= lo[axis] <= probe_hi[axis, chunk, None]
                hit &= probe_lo[axis, chunk, None] <= hi[axis]
            probe, row = np.nonzero(hit)
            pairs[member[chunk][probe], owner[row]] = True
        which, slot = np.nonzero(pairs)
        bounds = np.searchsorted(which, np.arange(len(members) + 1)).tolist()
        ids = list(map(self._ids.__getitem__, slot.tolist()))
        return [ids[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    def corridor_probes(
        self,
        trajectory: Trajectory,
        distance: float,
        t_lo: float,
        t_hi: float,
    ) -> Probes:
        """The boxes of a trajectory's corridor of width ``distance`` in a window.

        The clipped trajectory's segment boxes, grown by ``distance``: the
        legs of positive duration go through the kernel the table's own rows
        come from.  Their granularity scales with the corridor width:
        slicing finer than the expansion radius only multiplies
        near-identical probes.

        Raises:
            ValueError: when ``distance`` is negative, or the window holds
                no leg of positive duration (as ``Trajectory.segments()``).
        """
        if distance < 0:
            raise ValueError("corridor distance must be non-negative")
        clipped = trajectory.clipped(
            max(t_lo, trajectory.start_time), min(t_hi, trajectory.end_time)
        )
        ts, xs, ys = clipped.columns
        legs = np.flatnonzero(np.diff(ts) > TIME_TOLERANCE)
        if not legs.size:
            raise ValueError("trajectory has no segment with positive duration")
        probe_extent = (
            None
            if self._max_box_extent is None
            else max(self._max_box_extent, distance)
        )
        probes = _leg_boxes(
            (trajectory.object_id,), ts, xs, ys, legs,
            np.zeros(legs.size, dtype=np.int64), np.array([float(distance)]), probe_extent,
        )
        return _corners(probes)
