"""Columnar (structure-of-arrays) storage for a :class:`MovingObjectsDatabase`.

Every hot query path — corridor filtering, segment-box generation, band
bracketing — ultimately reads ``(x, y, t)`` sample columns.  Iterating
Python-level :class:`~repro.trajectories.trajectory.TrajectorySample`
tuples object by object dominates those paths long before the NumPy math
does, so :class:`ColumnarStore` packs the whole database once into
contiguous arrays:

* ``ts`` / ``xs`` / ``ys`` — every sample of every trajectory, concatenated
  in MOD insertion order;
* ``starts`` / ``lengths`` — the per-object slices into those columns;
* ``radii`` — the per-object uncertainty radii.

The store stays in sync with the MOD through the existing
:class:`~repro.trajectories.mod.ChangeRecord` changelog: a ``sync()`` after
streaming updates re-extracts only the *changed* objects' samples (the
Python-level cost; an extension that keeps its source's sample objects
reads its new tail only) and re-concatenates the pack lazily with one
C-level pass; untouched objects keep their per-object column arrays.  Per-object
column arrays are immutable once built, which makes three things safe and
cheap:

* ``columns(object_id)`` hands out zero-copy references;
* a *seeded* store (a MOD restored from a snapshot) borrows the snapshot's
  mapped per-object arrays by trajectory identity instead of re-reading
  sample tuples;
* a pack that was handed to NumPy kernels stays valid even while the store
  syncs past it.

On top of the pack, :func:`segment_boxes_bulk` derives every trajectory's
(uncertainty-expanded, optionally subdivided) segment bounding boxes in one
vectorized pass, bit-identical to the scalar
:func:`repro.index.boxes.segment_boxes` loop it replaces on index bulk
loads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import is_
from typing import TYPE_CHECKING, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .trajectory import _TIME_TOLERANCE, Trajectory, UncertainTrajectory

if TYPE_CHECKING:  # pragma: no cover - import-cycle-safe type-only import
    from ..index.boxes import IndexEntry


class ColumnarPack(NamedTuple):
    """One immutable snapshot of the packed columns.

    ``ts[starts[i] : starts[i] + lengths[i]]`` are the sample times of
    object ``ids[i]`` (``xs``/``ys`` likewise); ``radii[i]`` is its
    uncertainty radius.
    """

    ids: Tuple[object, ...]
    starts: np.ndarray
    lengths: np.ndarray
    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    radii: np.ndarray

    def slot_of(self, object_id: object) -> int:
        """Pack slot of an object id (linear scan; prefer the store's map)."""
        return self.ids.index(object_id)

    @property
    def sample_count(self) -> int:
        """Total number of packed samples."""
        return int(self.ts.size)

    def spatial_bounds(self) -> Tuple[float, float, float, float]:
        """Axis-aligned ``(xmin, ymin, xmax, ymax)`` of every packed sample."""
        if self.ts.size == 0:
            raise ValueError("the pack is empty")
        return (
            float(self.xs.min()),
            float(self.ys.min()),
            float(self.xs.max()),
            float(self.ys.max()),
        )


def _extract_columns(
    trajectory: Trajectory, first: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fresh ``(ts, xs, ys)`` column arrays from a trajectory's samples
    (from sample ``first`` on)."""
    samples = trajectory.samples[first:]
    ts = np.array([sample.t for sample in samples])
    xs = np.array([sample.x for sample in samples])
    ys = np.array([sample.y for sample in samples])
    return ts, xs, ys


class ColumnarStore:
    """Packed column arrays for one MOD, patched via its changelog.

    Args:
        mod: the :class:`~repro.trajectories.mod.MovingObjectsDatabase` to
            mirror.
        seed: an optional column provider whose per-object column arrays
            are borrowed (zero-copy) whenever this store needs columns of a
            trajectory *object* the provider handed out — a restored MOD
            holds its snapshot's trajectory shells, so seeding from the
            :class:`~repro.persistence.snapshot.MappedSnapshot` skips the
            per-sample Python extraction entirely.  Any object with a
            ``columns_for(trajectory) -> Optional[(ts, xs, ys)]`` method
            qualifies.
    """

    def __init__(
        self,
        mod,
        seed=None,
    ) -> None:
        self._mod = mod
        self._seed = seed
        self._revision: Optional[int] = None
        #: Insertion-ordered object ids (dict used as an ordered set).
        self._order: Dict[object, None] = {}
        self._columns: Dict[object, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        #: The trajectory object each column set was extracted from, so
        #: staleness is an identity check, never a value comparison.
        self._sources: Dict[object, Trajectory] = {}
        self._radii: Dict[object, float] = {}
        self._pack: Optional[ColumnarPack] = None
        self._flat: Optional[tuple] = None
        self._slots: Optional[Dict[object, int]] = None
        self.sync()

    # ------------------------------------------------------------------
    # Synchronization.
    # ------------------------------------------------------------------

    @property
    def revision(self) -> Optional[int]:
        """MOD revision the store was last synced to."""
        return self._revision

    def sync(self) -> bool:
        """Bring the pack up to date with the MOD; True when anything changed.

        The MOD's changelog identifies exactly which objects changed, so
        only their sample tuples are re-read; when the changelog no longer
        reaches back (store too far behind, foreign revision) the store
        resynchronizes from scratch — which still reuses every per-object
        array whose source trajectory is identical.
        """
        mod = self._mod
        # Read first: a change landing after the changelog read is then
        # still unseen, and the next sync re-reads it.
        revision = mod.revision
        if self._revision == revision:
            return False
        changes = (
            None if self._revision is None else mod.changes_since(self._revision)
        )
        if changes is None:
            self._resync_full()
        else:
            for record in changes:
                if record.kind == "remove" or record.object_id not in mod:
                    self._discard(record.object_id)
                else:
                    self._adopt(mod.get(record.object_id))
        self._revision = revision
        return True

    def _resync_full(self) -> None:
        current = list(self._mod)
        current_ids = {trajectory.object_id for trajectory in current}
        for object_id in list(self._order):
            if object_id not in current_ids:
                self._discard(object_id)
        # Rebuild the order from the MOD so a missed changelog cannot leave
        # the pack permuted; adoption reuses identical per-object arrays.
        self._order = {}
        for trajectory in current:
            self._order[trajectory.object_id] = None
            self._adopt(trajectory)
        self._invalidate_pack()

    def _invalidate_pack(self) -> None:
        self._pack = None
        self._flat = None
        self._slots = None

    def _adopt(self, trajectory: Trajectory) -> None:
        object_id = trajectory.object_id
        if object_id not in self._order:
            self._order[object_id] = None
            self._invalidate_pack()
        previous = self._sources.get(object_id)
        if previous is trajectory:
            return
        columns = None
        if self._seed is not None:
            columns = self._seed.columns_for(trajectory)
        if columns is None:
            kept = 0 if previous is None else len(previous.samples)
            # An extension keeps its source's sample objects (the WAL's rule
            # for extension frames): only the tail is read.
            if kept and len(trajectory.samples) >= kept and all(
                map(is_, previous.samples, trajectory.samples)
            ):
                columns = self._columns[object_id]
                if len(trajectory.samples) > kept:
                    tail = _extract_columns(trajectory, kept)
                    columns = tuple(np.concatenate(pair) for pair in zip(columns, tail))
            else:
                columns = _extract_columns(trajectory)
        self._columns[object_id] = columns
        self._sources[object_id] = trajectory
        self._radii[object_id] = (
            trajectory.radius if isinstance(trajectory, UncertainTrajectory) else 0.0
        )
        self._invalidate_pack()

    def _discard(self, object_id: object) -> None:
        if object_id in self._order:
            del self._order[object_id]
            self._invalidate_pack()
        self._columns.pop(object_id, None)
        self._sources.pop(object_id, None)
        self._radii.pop(object_id, None)

    # ------------------------------------------------------------------
    # Access.
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    @property
    def ids(self) -> Tuple[object, ...]:
        """Packed object ids in MOD insertion order."""
        return self.pack().ids

    def slot_of(self, object_id: object) -> int:
        """Pack slot of an object id.

        Raises:
            KeyError: when the id is not packed.
        """
        if self._slots is None:
            self._slots = {
                object_id: slot for slot, object_id in enumerate(self.pack().ids)
            }
        return self._slots[object_id]

    def columns_for(
        self, trajectory: Trajectory
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """This store's columns for an *identical* trajectory object, else None.

        The identity check makes borrowed columns safe even when this store
        is stale: columns are tied to the trajectory object they were
        extracted from, never to the id alone.
        """
        object_id = trajectory.object_id
        if self._sources.get(object_id) is trajectory:
            return self._columns[object_id]
        return None

    def columns(
        self, object_id: object
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy ``(ts, xs, ys)`` columns of one object.

        Raises:
            KeyError: when the object id is not stored.
        """
        self.sync()
        return self._columns[object_id]

    def radius_of(self, object_id: object) -> float:
        """Uncertainty radius of one object."""
        self.sync()
        return self._radii[object_id]

    def positions(
        self, object_id: object, times: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Expected (x, y) positions of one object at several times."""
        ts, xs, ys = self.columns(object_id)
        return np.interp(times, ts, xs), np.interp(times, ts, ys)

    def pack(self) -> ColumnarPack:
        """The current packed snapshot (synced, lazily re-concatenated)."""
        self.sync()
        if self._pack is None:
            ids = tuple(self._order)
            column_sets = [self._columns[object_id] for object_id in ids]
            lengths = np.array(
                [columns[0].size for columns in column_sets], dtype=np.int64
            )
            if ids:
                starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
                ts = np.concatenate([columns[0] for columns in column_sets])
                xs = np.concatenate([columns[1] for columns in column_sets])
                ys = np.concatenate([columns[2] for columns in column_sets])
            else:
                starts = np.zeros(0, dtype=np.int64)
                ts = np.zeros(0)
                xs = np.zeros(0)
                ys = np.zeros(0)
            radii = np.array([self._radii[object_id] for object_id in ids])
            self._pack = ColumnarPack(ids, starts, lengths, ts, xs, ys, radii)
        return self._pack

    def boxes_since(
        self,
        changed: Mapping[object, Optional[float]],
        max_extent: Optional[float],
    ) -> "SegmentBoxArrays":
        """The changed, still stored objects' segment boxes from their divergence times on.

        ``changed`` maps ids to divergence times (``None``: the start).  The
        legs ending at or after them go through :func:`segment_boxes_bulk`'s
        kernel in one pass; the boxes starting at or after them are kept.
        """
        self.sync()
        ids = [object_id for object_id in changed if object_id in self._columns]
        cut = np.array([-np.inf if changed[i] is None else changed[i] for i in ids])
        cut -= _TIME_TOLERANCE
        owner = np.repeat(np.arange(len(ids)), [self._columns[i][0].size for i in ids])
        ts, xs, ys = (
            np.concatenate([np.zeros(0), *(self._columns[i][k] for i in ids)]) for k in range(3)
        )
        # Legs of positive duration ending at or after their object's cut.
        legs = owner[:-1] == owner[1:]
        legs = np.flatnonzero(legs & (ts[1:] >= cut[owner[1:]]) & (np.diff(ts) > _TIME_TOLERANCE))
        radii = np.array([self._radii[i] for i in ids])
        boxes = _leg_boxes(tuple(ids), ts, xs, ys, legs, owner[legs], radii, max_extent)
        fresh = boxes.t_min >= cut[boxes.owner_slots]
        return SegmentBoxArrays(
            boxes.ids, *(getattr(boxes, field.name)[fresh] for field in fields(boxes)[1:])
        )

    def flat(self) -> tuple:
        """The pack as the flat tuple the corridor kernels consume.

        Returns:
            ``(ids, starts, lengths, times, xs, ys)`` — the layout of the
            per-sample :meth:`repro.reference.corridor.TrajectoryArrays.flat`
            it is pinned against.  The
            tuple is cached per pack, so repeated calls return identical
            objects until the next mutation.
        """
        pack = self.pack()
        if self._flat is None:
            self._flat = (
                list(pack.ids),
                pack.starts,
                pack.lengths,
                pack.ts,
                pack.xs,
                pack.ys,
            )
        return self._flat


# ----------------------------------------------------------------------
# Bulk segment boxes.
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SegmentBoxArrays:
    """Structure-of-arrays form of every segment box of a pack.

    One row per index entry, in the exact order the scalar
    ``for trajectory: for segment: for slice`` loop produces, so bulk loads
    build byte-identical indexes.
    """

    ids: Tuple[object, ...]
    owner_slots: np.ndarray
    x_min: np.ndarray
    y_min: np.ndarray
    t_min: np.ndarray
    x_max: np.ndarray
    y_max: np.ndarray
    t_max: np.ndarray

    def __len__(self) -> int:
        return int(self.owner_slots.size)

    @classmethod
    def from_entries(cls, entries: Sequence["IndexEntry"]) -> "SegmentBoxArrays":
        """Pack materialized entries into columns (the inverse of :meth:`entries`).

        ``ids`` lists the owners in order of first appearance.
        """
        slot_of: Dict[object, int] = {}
        owner_slots = np.array(
            [slot_of.setdefault(entry.object_id, len(slot_of)) for entry in entries],
            dtype=np.int64,
        )
        columns = np.array(
            [
                (box.x_min, box.y_min, box.t_min, box.x_max, box.y_max, box.t_max)
                for box in (entry.box for entry in entries)
            ],
            dtype=float,
        ).reshape(-1, 6)
        return cls(tuple(slot_of), owner_slots, *columns.T)

    def entries(self) -> List["IndexEntry"]:
        """Materialized :class:`IndexEntry` list, in the scalar loop's shape."""
        # Imported here: ``repro.index`` itself imports the trajectory
        # package, so a module-level import would be circular.
        from ..index.boxes import Box3D, IndexEntry

        return [
            IndexEntry(Box3D(xl, yl, tl, xh, yh, th), self.ids[slot])
            for xl, yl, tl, xh, yh, th, slot in zip(
                self.x_min.tolist(),
                self.y_min.tolist(),
                self.t_min.tolist(),
                self.x_max.tolist(),
                self.y_max.tolist(),
                self.t_max.tolist(),
                self.owner_slots.tolist(),
            )
        ]


def segment_boxes_bulk(
    pack: ColumnarPack,
    spatial_margin: float | None = None,
    max_extent: float | None = None,
) -> SegmentBoxArrays:
    """Every trajectory's segment boxes in one vectorized pass.

    Bit-identical to running :func:`repro.index.boxes.segment_boxes` over
    each packed trajectory in order: zero-duration legs are skipped, long
    segments are subdivided into ``ceil(span / max_extent)`` equal time
    slices, and each slice's box is expanded by the spatial margin (the
    per-object uncertainty radius by default).

    Raises:
        ValueError: when some object has no segment with positive duration
            (mirroring ``Trajectory.segments()``) or ``max_extent <= 0``.
    """
    if max_extent is not None and max_extent <= 0:
        raise ValueError("max_extent must be positive")
    object_count = len(pack.ids)
    # Segment start samples: every sample except each object's last.
    is_start = np.ones(pack.sample_count, dtype=bool)
    is_start[pack.starts + pack.lengths - 1] = False
    first_idx = np.nonzero(is_start)[0]
    owner = np.repeat(
        np.arange(object_count, dtype=np.int64), np.maximum(pack.lengths - 1, 0)
    )
    keep = pack.ts[first_idx + 1] - pack.ts[first_idx] > _TIME_TOLERANCE
    kept_per_object = np.bincount(owner[keep], minlength=object_count)
    if object_count and kept_per_object.min() == 0:
        slot = int(np.argmin(kept_per_object))
        raise ValueError(
            "trajectory has no segment with positive duration: "
            f"{pack.ids[slot]!r}"
        )
    margins = (
        pack.radii if spatial_margin is None else np.full(object_count, float(spatial_margin))
    )
    return _leg_boxes(
        pack.ids, pack.ts, pack.xs, pack.ys, first_idx[keep], owner[keep], margins, max_extent
    )


def _leg_boxes(ids, ts, xs, ys, first_idx, owner, margins, max_extent) -> SegmentBoxArrays:
    """Boxes of the legs ``first_idx -> first_idx + 1`` of sample columns.

    ``owner`` holds each leg's slot into ``ids`` and ``margins``; every leg
    has positive duration.
    """
    t0 = ts[first_idx]
    t1 = ts[first_idx + 1]
    dt = t1 - t0
    x0 = xs[first_idx]
    x1 = xs[first_idx + 1]
    y0 = ys[first_idx]
    y1 = ys[first_idx + 1]
    dx = x1 - x0
    dy = y1 - y0

    span = np.maximum(np.abs(dx), np.abs(dy))
    slices = np.ones(span.size, dtype=np.int64)
    if max_extent is not None:
        subdivided = span > max_extent
        slices[subdivided] = np.ceil(span[subdivided] / max_extent).astype(np.int64)

    total = int(slices.sum())
    repeat = slices
    owner_rep = np.repeat(owner, repeat)
    x0_rep = np.repeat(x0, repeat)
    y0_rep = np.repeat(y0, repeat)
    t0_rep = np.repeat(t0, repeat)
    dx_rep = np.repeat(dx, repeat)
    dy_rep = np.repeat(dy, repeat)
    dt_rep = np.repeat(dt, repeat)
    slices_rep = np.repeat(slices, repeat)
    # Within-segment slice index: 0..slices-1 per segment.
    slice_start = np.cumsum(slices) - slices
    k = np.arange(total, dtype=np.int64) - np.repeat(slice_start, repeat)

    f_lo = k / slices_rep
    f_hi = (k + 1) / slices_rep
    x_a = x0_rep + dx_rep * f_lo
    x_b = x0_rep + dx_rep * f_hi
    y_a = y0_rep + dy_rep * f_lo
    y_b = y0_rep + dy_rep * f_hi
    t_a = t0_rep + dt_rep * f_lo
    t_b = t0_rep + dt_rep * f_hi

    margin = margins[owner_rep]
    return SegmentBoxArrays(
        ids=ids,
        owner_slots=owner_rep,
        x_min=np.minimum(x_a, x_b) - margin,
        y_min=np.minimum(y_a, y_b) - margin,
        t_min=t_a,
        x_max=np.maximum(x_a, x_b) + margin,
        y_max=np.maximum(y_a, y_b) + margin,
        t_max=t_b,
    )
