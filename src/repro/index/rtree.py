"""An array-packed STR R-tree over segment boxes in (x, y, t) space.

The paper's future-work section points at U-tree-style index support for
uncertain queries; this module provides the classical substrate: a
Sort-Tile-Recursive bulk-loaded R-tree.  It is built over the segment boxes
of a trajectory set (expanded by the uncertainty radius) and answers
box-intersection probes, which the query layer uses to pre-filter NN
candidates before building distance functions.

Because the external ``rtree`` package (libspatialindex bindings) is not
available offline, the tree is implemented from scratch — as flat NumPy
arrays, not as one Python object per box.  The entries live in one table
(``lo``/``hi`` corners as (3, n) coordinate rows, owner slot, live flag)
stored in leaf order; every level above is a ``(lo, hi, first, count)``
column group whose node ``j`` covers columns ``first[j] : first[j] +
count[j]`` of the level below.  A bulk
load is a few stable sorts and ``reduceat`` calls per level, and a probe
descends level by level with the whole frontier tested against every probe
box in one pass.

The streaming layer needs *incremental maintenance*, and a store's change
set (one :meth:`STRRTree.patch` per revision) never touches the packed
levels: removal clears live flags (tombstones), and insertion appends to an
unpacked overflow block behind the packed rows that probes scan alongside
the leaves.  When the overflow outgrows
``1 / _OVERFLOW_SHARE`` of the packed entries the tree repacks itself from
its live rows, so probe cost stays within a constant factor of a fresh bulk
load.  A probe's answer depends on the live entry set alone, never on how
the rows are currently arranged.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..core.tolerances import TIME_TOLERANCE
from ..trajectories.columnar import SegmentBoxArrays
from ..trajectories.trajectory import Trajectory
from .boxes import Box3D, IndexEntry, segment_boxes

#: Overflow rows tolerated per packed row before the tree repacks itself.
_OVERFLOW_SHARE = 8

#: (box, probe) pairs one pass of ``_hits`` compares.
_PAIR_BUDGET = 1 << 21


def _corners(
    boxes: SegmentBoxArrays, margin: float = 0.0
) -> Tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` corner arrays of shape (3, n), grown spatially by ``margin``."""
    lo = np.stack((boxes.x_min - margin, boxes.y_min - margin, boxes.t_min))
    hi = np.stack((boxes.x_max + margin, boxes.y_max + margin, boxes.t_max))
    return lo, hi


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The runs ``first[i] : first[i] + count[i]`` concatenated in order."""
    ends = np.cumsum(count)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(first - (ends - count), count)


def _hits(
    lo: np.ndarray, hi: np.ndarray, probe_lo: np.ndarray, probe_hi: np.ndarray
) -> np.ndarray:
    """Mask of the closed boxes ``[lo, hi]`` intersecting at least one probe box.

    All four arrays are (3, count): one contiguous row per coordinate keeps
    the (3, probes, boxes) comparison a handful of long vector passes.  The
    probes are taken ``_PAIR_BUDGET // boxes`` at a time — normally all at
    once — so the temporaries stay a few megabytes whatever the corridor.
    """
    hit = np.zeros(lo.shape[1], dtype=bool)
    step = max(1, _PAIR_BUDGET // max(1, lo.shape[1]))
    for start in range(0, probe_lo.shape[1], step):
        overlap = (lo[:, None, :] <= probe_hi[:, start : start + step, None]) & (
            probe_lo[:, start : start + step, None] <= hi[:, None, :]
        )
        hit |= overlap.all(axis=0).any(axis=0)
    return hit


def _str_order(
    lo: np.ndarray, hi: np.ndarray, capacity: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One Sort-Tile-Recursive pass over a level's boxes.

    Returns the packing order — a stable sort by x-centre, sliced into
    vertical strips that are each stably sorted by y-centre — and the start
    of every run of at most ``capacity`` boxes (never spanning two strips)
    that becomes one node of the level above.
    """
    count = lo.shape[1]
    strips = max(1, math.ceil(math.sqrt(math.ceil(count / capacity))))
    per_strip = math.ceil(count / strips)
    x_centre, y_centre = (lo[:2] + hi[:2]) / 2.0
    position = np.arange(count)
    by_x = np.argsort(x_centre, kind="stable")
    order = by_x[np.lexsort((y_centre[by_x], position // per_strip))]
    return order, np.flatnonzero(position % per_strip % capacity == 0)


class STRRTree:
    """Sort-Tile-Recursive bulk-loaded R-tree with incremental maintenance.

    Args:
        entries: the boxes to load — the columnar
            :class:`~repro.trajectories.columnar.SegmentBoxArrays` of a bulk
            build, or a sequence of :class:`IndexEntry`.
        leaf_capacity: maximum entries per leaf and children per node.
        max_box_extent: the segment subdivision the entries were built with;
            reused for patches and query-side probes.
    """

    def __init__(
        self,
        entries: Union[Sequence[IndexEntry], SegmentBoxArrays],
        leaf_capacity: int = 16,
        max_box_extent: Optional[float] = None,
    ):
        if leaf_capacity < 2:
            raise ValueError("leaf capacity must be at least 2")
        self._leaf_capacity = leaf_capacity
        self._max_box_extent = max_box_extent
        self._ids: List[object] = []
        self._slot_of: Dict[object, int] = {}
        #: Times the tree repacked itself because its overflow outgrew its share.
        self.repacks = 0
        self._pack(*self._columns(entries))

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels of the packed tree (0 for an empty tree)."""
        return len(self._levels)

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    def _columns(
        self, boxes: Union[Sequence[IndexEntry], SegmentBoxArrays]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo, hi, owner)`` rows of some boxes, owners as slots of this tree."""
        if not isinstance(boxes, SegmentBoxArrays):
            boxes = SegmentBoxArrays.from_entries(boxes)
        for object_id in boxes.ids:
            if object_id not in self._slot_of:
                self._slot_of[object_id] = len(self._ids)
                self._ids.append(object_id)
        slots = np.array(
            [self._slot_of[object_id] for object_id in boxes.ids], dtype=np.int64
        )
        return (*_corners(boxes), slots[boxes.owner_slots])

    def _pack(self, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray) -> None:
        """Bulk load: STR-sort the rows, then stack levels until one root remains.

        Each pass sorts the current top of the stack into packing order and
        adds the level of nodes covering its runs, so a level is stored in
        the order its *parents* were packed in and every node's children
        stay one contiguous range of the level below.
        """
        stack: List[Tuple[np.ndarray, ...]] = [(lo, hi, owner)]
        while len(stack[-1][2]) > 1 or (len(stack) == 1 and len(owner)):
            order, first = _str_order(stack[-1][0], stack[-1][1], self._leaf_capacity)
            below = stack[-1] = tuple(column[..., order] for column in stack[-1])
            stack.append(
                (
                    np.minimum.reduceat(below[0], first, axis=1),
                    np.maximum.reduceat(below[1], first, axis=1),
                    first,
                    np.diff(first, append=len(order)),
                )
            )
        self._levels = stack[1:]
        self._size = self._packed = self._count = len(owner)
        # The spare rows behind the packed ones are the overflow block.
        spare = len(owner) // _OVERFLOW_SHARE
        lo, hi, owner = stack[0]
        self._lo = np.concatenate((lo, np.empty((3, spare))), axis=1)
        self._hi = np.concatenate((hi, np.empty((3, spare))), axis=1)
        self._owner = np.concatenate((owner, np.empty(spare, dtype=np.int64)))
        self._alive = np.ones(len(self._owner), dtype=bool)
        self._by_owner: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Incremental maintenance.
    # ------------------------------------------------------------------

    def _append(self, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray) -> None:
        """Add rows to the overflow block, repacking once it is full."""
        end = self._count + len(owner)
        if end > len(self._owner):
            live = np.flatnonzero(self._alive[: self._count])
            self._pack(
                np.concatenate((self._lo[:, live], lo), axis=1),
                np.concatenate((self._hi[:, live], hi), axis=1),
                np.concatenate((self._owner[live], owner)),
            )
            self.repacks += 1
            return
        self._lo[:, self._count : end] = lo
        self._hi[:, self._count : end] = hi
        self._owner[self._count : end] = owner
        self._size += len(owner)
        self._count = end

    def patch(self, changed: Mapping[object, Optional[float]], store) -> None:
        """Apply a store's change set (ids to divergence times) in place.

        One tombstone pass retires each changed object's boxes starting at
        or after its time (its packed rows found through an owner-sorted
        view of the packed block, sorted once per pack; the overflow block
        read whole), then one append adds the column store's
        :meth:`~repro.trajectories.columnar.ColumnarStore.boxes_since`.
        """
        cut = np.full(len(self._ids), np.inf)
        for object_id, after in changed.items():
            slot = self._slot_of.get(object_id)
            if slot is not None:
                cut[slot] = -np.inf if after is None else after - TIME_TOLERANCE
        if self._by_owner is None:
            order = np.argsort(self._owner[: self._packed], kind="stable")
            self._by_owner = order, np.searchsorted(self._owner[order], np.arange(len(cut) + 1))
        order, bounds = self._by_owner
        slots = np.flatnonzero(cut[: len(bounds) - 1] < np.inf)
        packed = order[_ranges(bounds[slots], bounds[slots + 1] - bounds[slots])]
        rows = np.concatenate((packed, np.arange(self._packed, self._count)))
        rows = rows[self._alive[rows] & (self._lo[2, rows] >= cut[self._owner[rows]])]
        self._alive[rows] = False
        self._size -= len(rows)
        if len(rows) and not self._size:
            self._pack(np.empty((3, 0)), np.empty((3, 0)), np.empty(0, dtype=np.int64))
        self._append(*self._columns(store.boxes_since(changed, self._max_box_extent)))

    # ------------------------------------------------------------------
    # Leaf listing.
    # ------------------------------------------------------------------

    def leaf_entries(self) -> List[List[IndexEntry]]:
        """Per-leaf entry lists in left-to-right tree order.

        For a freshly bulk-loaded tree this is the STR packing order (x-sorted
        strips, y-sorted within each strip, at every level), so consecutive
        leaves are spatially adjacent tiles, which the scalar STR oracle in
        the tests reproduces.  A mutated tree
        lists its live entries leaf by leaf, then its overflow block.
        """
        first = np.array([self._packed])
        count = np.array([self._count - self._packed])
        if self._levels:
            leaves = np.arange(1)
            for _, _, below, fanout in reversed(self._levels[1:]):
                leaves = _ranges(below[leaves], fanout[leaves])
            first = np.append(self._levels[0][2][leaves], first)
            count = np.append(self._levels[0][3][leaves], count)
        rows = _ranges(first, count)
        alive = self._alive[rows]
        rows, leaf = rows[alive], np.repeat(np.arange(len(count)), count)[alive]
        entries = [
            IndexEntry(Box3D(*box), self._ids[slot])
            for box, slot in zip(
                np.concatenate((self._lo[:, rows], self._hi[:, rows])).T.tolist(),
                self._owner[rows].tolist(),
            )
        ]
        # ``leaf`` is non-decreasing: cut the flat list where it steps.
        cuts = [0, *(np.flatnonzero(np.diff(leaf)) + 1).tolist(), len(entries)]
        return [entries[a:b] for a, b in zip(cuts[:-1], cuts[1:]) if b > a]

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def _probe(self, probe_lo: np.ndarray, probe_hi: np.ndarray) -> Set[object]:
        """Ids owning a live entry that intersects at least one probe box.

        The frontier starts at the root and, per level, keeps the nodes some
        probe box touches and moves to their children; the surviving leaf
        rows and the overflow block then take the same test entry by entry.
        """
        rows = np.arange(1 if self._levels else 0)
        for lo, hi, first, count in reversed(self._levels):
            rows = rows[_hits(lo[:, rows], hi[:, rows], probe_lo, probe_hi)]
            rows = _ranges(first[rows], count[rows])
        rows = np.concatenate((rows, np.arange(self._packed, self._count)))
        rows = rows[self._alive[rows]]
        rows = rows[
            _hits(self._lo[:, rows], self._hi[:, rows], probe_lo, probe_hi)
        ]
        return {self._ids[slot] for slot in np.unique(self._owner[rows]).tolist()}

    def query_box(self, box: Box3D) -> Set[object]:
        """Object ids whose indexed boxes intersect the probe box."""
        return self._probe(
            np.array([[box.x_min], [box.y_min], [box.t_min]]),
            np.array([[box.x_max], [box.y_max], [box.t_max]]),
        )

    def query_corridor(
        self,
        trajectory: Trajectory,
        distance: float,
        t_lo: float,
        t_hi: float,
    ) -> Set[object]:
        """Objects possibly within ``distance`` of a trajectory during a window."""
        if distance < 0:
            raise ValueError("corridor distance must be non-negative")
        clipped = trajectory.clipped(
            max(t_lo, trajectory.start_time), min(t_hi, trajectory.end_time)
        )
        # Probe granularity scales with the corridor width: slicing finer
        # than the expansion radius only multiplies near-identical probes.
        probe_extent = (
            None
            if self._max_box_extent is None
            else max(self._max_box_extent, distance)
        )
        probes = SegmentBoxArrays.from_entries(
            segment_boxes(clipped, spatial_margin=0.0, max_extent=probe_extent)
        )
        found = self._probe(*_corners(probes, margin=distance))
        found.discard(trajectory.object_id)
        return found

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------

    @staticmethod
    def from_trajectories(
        trajectories: Iterable[Trajectory],
        spatial_margin: float | None = None,
        leaf_capacity: int = 16,
        max_box_extent: float | None = None,
    ) -> "STRRTree":
        """Bulk load a tree from the segment boxes of several trajectories.

        ``max_box_extent`` subdivides long segments into several tighter
        entries (see :func:`repro.index.boxes.segment_boxes`); corridor
        probes then use the same subdivision on the query side.
        """
        entries: List[IndexEntry] = []
        for trajectory in trajectories:
            entries.extend(
                segment_boxes(trajectory, spatial_margin, max_extent=max_box_extent)
            )
        return STRRTree(
            entries, leaf_capacity=leaf_capacity, max_box_extent=max_box_extent
        )
