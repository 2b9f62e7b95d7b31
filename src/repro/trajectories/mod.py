"""The Moving Objects Database (MOD): the store the queries run against.

A thin but complete in-memory store of uncertain trajectories keyed by
object id, with the operations the query layer needs: lookup, time-span
bookkeeping, construction of the difference distance functions relative to a
query trajectory, and (optionally) index-assisted candidate filtering.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..geometry.envelope.bulk import FunctionPack
from ..geometry.envelope.hyperbola import DistanceFunction
from .difference import difference_function_packs
from .trajectory import UncertainTrajectory

#: Changelog entries kept before old records are trimmed.  Derived structures
#: that fall further behind than this must resynchronize from scratch.
_CHANGELOG_CAPACITY = 4096


@dataclass(frozen=True, slots=True)
class ChangeRecord:
    """One MOD mutation: which object changed, how, and at which revision.

    Attributes:
        revision: the (global) revision the mutation produced.
        kind: ``"add"``, ``"remove"``, or ``"replace"``.
        object_id: id of the affected trajectory.
        divergence_time: for replacements, the time from which the new
            trajectory may differ from the old one (a pure extension
            diverges at the old end time).  ``None`` means the change can
            affect any time — derived structures must treat every window
            touching the object as stale.  Windows ending at or before a
            finite divergence time are provably unaffected.
    """

    revision: int
    kind: str
    object_id: object
    divergence_time: Optional[float] = None


#: The mutation kinds a :class:`ChangeRecord` may carry.
CHANGE_KINDS = ("add", "remove", "replace")

#: One mutating call's ``(record, trajectory after it)`` pairs (``None`` for
#: removals); single mutations are batches of one.
Changes = Sequence[Tuple[ChangeRecord, Optional[UncertainTrajectory]]]

#: A change listener, called once per batch: the seam the persistence tier's
#: write-ahead log hangs off.
ChangeListener = Callable[[Changes], None]


def _divergence_time(
    old: UncertainTrajectory, new: UncertainTrajectory
) -> Optional[float]:
    """Earliest time from which two trajectories of one object may differ.

    The motions agree up to the last shared sample prefix; a differing
    uncertainty radius or pdf support makes the change global (``None``),
    as does a changed start time.  Supports are compared exactly: only a
    global change moves :meth:`MovingObjectsDatabase.default_band_width`.
    An extension of ``old`` diverges at its end without a sample read.
    """
    if (
        type(old.pdf) is not type(new.pdf)
        or abs(old.radius - new.radius) > 1e-12
        or old.pdf.support_radius != new.pdf.support_radius
    ):
        return None
    if new.extends(old):
        return old.end_time
    shared = 0
    for first, second in zip(old.samples, new.samples):
        if (
            abs(first.t - second.t) > 1e-12
            or abs(first.x - second.x) > 1e-12
            or abs(first.y - second.y) > 1e-12
        ):
            break
        shared += 1
    if shared == 0:
        return None
    if shared == len(old.samples) == len(new.samples):
        # Identical trajectories: diverge only after both end.
        return old.end_time
    return old.samples[shared - 1].t


class MovingObjectsDatabase:
    """In-memory MOD holding uncertain trajectories keyed by object id.

    Beyond plain storage, the MOD provides the three mechanisms every
    serving layer above it is built on:

    * **revisions + changelog** — every mutation bumps :attr:`revision` and
      appends a :class:`ChangeRecord`; derived structures (engine indexes
      and caches, columnar packs, the service's result cache) detect
      staleness by revision and resynchronize incrementally via
      :meth:`changes_since`;
    * **columnar views** — :meth:`columnar` maintains a packed
      structure-of-arrays mirror the bulk NumPy kernels run over, read from
      the columns each stored trajectory owns;
    * **one index per store** — :meth:`index`, shared by every engine over
      the store and patched from the changelog once per revision;
    * **query support** — :meth:`distance_pack`,
      :meth:`default_band_width`, and :meth:`build_index` produce the
      inputs of :class:`~repro.core.queries.QueryContext` construction and
      index-assisted candidate filtering.
    """

    def __init__(self, trajectories: Optional[Iterable[UncertainTrajectory]] = None):
        self._trajectories: Dict[object, UncertainTrajectory] = {}
        self._revision = 0
        self._object_revisions: Dict[object, int] = {}
        self._changelog: List[ChangeRecord] = []
        self._listeners: List[ChangeListener] = []
        #: ``(index, revision)``: the store's box table and the revision it is synced to.
        self._index: Tuple[object, Optional[int]] = (None, None)
        self._index_lock = threading.Lock()
        self._columnar = None
        #: ``(revision, [(id, support)])`` of the two largest pdf supports,
        #: valid until a change without a divergence time (the only kind
        #: that can move a support) logs a later revision.
        self._largest_supports: Tuple[int, list] = (-1, [])
        self._supports_moved = 0
        if trajectories is not None:
            for trajectory in trajectories:
                self.add(trajectory)

    @property
    def revision(self) -> int:
        """Monotonic change counter, bumped on every add/remove/replace.

        Lets derived structures (indexes, flattened position arrays) detect
        staleness without hashing the whole store.
        """
        return self._revision

    def object_revision(self, object_id: object) -> int:
        """Revision at which the object's trajectory last changed.

        Raises:
            KeyError: when the object id is unknown.
        """
        if object_id not in self._trajectories:
            raise KeyError(f"unknown object id {object_id!r}")
        return self._object_revisions[object_id]

    def changes_since(self, revision: int) -> Optional[List[ChangeRecord]]:
        """Mutations after ``revision``, oldest first, or ``None`` if unknowable.

        ``None`` means the changelog no longer reaches back to ``revision``
        (or the revision is from another store); callers must then treat the
        whole database as changed.  An up-to-date caller gets ``[]``.
        """
        if revision == self._revision:
            return []
        if revision > self._revision or revision < 0:
            return None
        if not self._changelog or self._changelog[0].revision > revision + 1:
            return None
        # Revision-ordered, though not necessarily contiguous once restored.
        start = bisect_right(self._changelog, revision, key=attrgetter("revision"))
        return self._changelog[start:]

    def divergences_since(self, revision: int) -> Optional[Dict[object, Optional[float]]]:
        """The fold of :meth:`changes_since` every derived structure syncs from.

        Per changed object, the earliest divergence time across its records,
        or ``None`` when one of them (an add, a removal, a global replace)
        can affect every time; ``None`` when the changelog cannot tell.
        """
        changes = self.changes_since(revision)
        if changes is None:
            return None
        changed: Dict[object, Optional[float]] = {}
        for record in changes:
            new = record.divergence_time
            old = changed.get(record.object_id, new)
            changed[record.object_id] = None if None in (old, new) else min(old, new)
        return changed

    def changelog_records(self) -> List[ChangeRecord]:
        """The retained changelog tail, oldest first (capacity-trimmed).

        This is exactly the state a snapshot must persist for the restored
        store's :meth:`changes_since` to answer like the original's.
        """
        return list(self._changelog)

    def _record_change(
        self,
        kind: str,
        object_id: object,
        divergence_time: Optional[float] = None,
    ) -> ChangeRecord:
        self._revision += 1
        if kind == "remove":
            self._object_revisions.pop(object_id, None)
        else:
            self._object_revisions[object_id] = self._revision
        record = ChangeRecord(self._revision, kind, object_id, divergence_time)
        self._log(record)
        return record

    def _log(self, record: ChangeRecord) -> None:
        if record.divergence_time is None:
            self._supports_moved = record.revision
        self._changelog.append(record)
        if len(self._changelog) > _CHANGELOG_CAPACITY:
            del self._changelog[: len(self._changelog) - _CHANGELOG_CAPACITY]

    def _notify(self, changes: Changes) -> None:
        for listener in tuple(self._listeners):
            listener(changes)

    # ------------------------------------------------------------------
    # Change listeners and replicated/replayed mutations (the seams the
    # persistence tier — repro.persistence — is built on).
    # ------------------------------------------------------------------

    def subscribe_changes(self, listener: ChangeListener) -> None:
        """Register a listener called once per mutating call.

        The listener receives the call's :data:`Changes` — exactly the
        payload a write-ahead log needs to make the batch durable.
        Listeners run synchronously on the mutating thread, after the
        store's own state (revision, changelog) is updated.
        """
        if listener in self._listeners:
            raise ValueError("listener is already subscribed")
        self._listeners.append(listener)

    def unsubscribe_changes(self, listener: ChangeListener) -> None:
        """Remove a previously subscribed listener (no-op when absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def apply_change(
        self,
        record: ChangeRecord,
        trajectory: Optional[UncertainTrajectory] = None,
    ) -> None:
        """Apply one recorded mutation verbatim (the WAL-replay entry point).

        Unlike :meth:`add`/:meth:`remove`/:meth:`replace_trajectory`, this
        does not *derive* a new :class:`ChangeRecord` — it installs the
        given one, divergence time included, so a replayed store's
        revision, changelog, and ``changes_since`` behavior are identical
        to the original's.  Records must arrive in revision order with no
        gaps.

        Args:
            record: the change to apply; ``record.revision`` must be
                exactly ``self.revision + 1``.
            trajectory: the object's post-change trajectory; required for
                ``"add"``/``"replace"`` records, forbidden for ``"remove"``.

        Raises:
            ValueError: on a revision gap, an unknown kind, or a payload
                that does not match the kind.
            KeyError: when the record's object id contradicts the store
                (adding an existing id, removing/replacing a missing one).
        """
        if record.kind not in CHANGE_KINDS:
            raise ValueError(
                f"unknown change kind {record.kind!r} (expected {CHANGE_KINDS})"
            )
        if record.revision != self._revision + 1:
            raise ValueError(
                f"revision gap: cannot apply revision {record.revision} "
                f"on top of {self._revision}"
            )
        if record.kind == "remove":
            if trajectory is not None:
                raise ValueError("remove records carry no trajectory payload")
            if record.object_id not in self._trajectories:
                raise KeyError(f"unknown object id {record.object_id!r}")
            del self._trajectories[record.object_id]
            self._object_revisions.pop(record.object_id, None)
        else:
            if not isinstance(trajectory, UncertainTrajectory):
                raise ValueError(
                    f"{record.kind!r} records require an UncertainTrajectory payload"
                )
            if trajectory.object_id != record.object_id:
                raise ValueError(
                    f"payload object id {trajectory.object_id!r} does not match "
                    f"record object id {record.object_id!r}"
                )
            stored = record.object_id in self._trajectories
            if record.kind == "add" and stored:
                raise KeyError(f"object id {record.object_id!r} already stored")
            if record.kind == "replace" and not stored:
                raise KeyError(f"unknown object id {record.object_id!r}")
            self._trajectories[record.object_id] = trajectory
            self._object_revisions[record.object_id] = record.revision
        self._revision = record.revision
        self._log(record)
        self._notify([(record, trajectory)])

    @classmethod
    def restore_state(
        cls,
        trajectories: Iterable[UncertainTrajectory],
        revision: int,
        object_revisions: Mapping[object, int],
        changelog: Sequence[ChangeRecord],
    ) -> "MovingObjectsDatabase":
        """Rebuild a store at an exact prior state (the snapshot-load path).

        The returned MOD does not re-derive anything: ``trajectories``
        become the stored objects in iteration order (which fixes the
        columnar pack order), and ``revision`` / ``object_revisions`` /
        ``changelog`` are installed verbatim — so ``changes_since`` on the
        restored store answers exactly as it did on the original.

        Raises:
            ValueError: when the changelog is not revision-ordered, reaches
                past ``revision``, or ``object_revisions`` names an object
                that is not restored.
        """
        mod = cls()
        for trajectory in trajectories:
            if not isinstance(trajectory, UncertainTrajectory):
                raise TypeError("the MOD stores UncertainTrajectory objects")
            if trajectory.object_id in mod._trajectories:
                raise KeyError(
                    f"object id {trajectory.object_id!r} restored twice"
                )
            mod._trajectories[trajectory.object_id] = trajectory
        if revision < 0:
            raise ValueError("revision must be non-negative")
        previous = 0
        for record in changelog:
            if record.revision <= previous:
                raise ValueError("changelog records must be revision-ordered")
            if record.revision > revision:
                raise ValueError(
                    f"changelog reaches past the restored revision: "
                    f"{record.revision} > {revision}"
                )
            previous = record.revision
        unknown = [
            object_id
            for object_id in object_revisions
            if object_id not in mod._trajectories
        ]
        if unknown:
            raise ValueError(
                f"object_revisions name unrestored objects: {unknown!r}"
            )
        missing = [
            object_id
            for object_id in mod._trajectories
            if object_id not in object_revisions
        ]
        if missing:
            raise ValueError(
                f"restored objects lack an object_revision entry: {missing!r}"
            )
        mod._revision = revision
        mod._object_revisions = dict(object_revisions)
        mod._changelog = list(changelog)
        return mod

    # ------------------------------------------------------------------
    # Store operations.
    # ------------------------------------------------------------------

    def add(self, trajectory: UncertainTrajectory) -> None:
        """Insert a trajectory; object ids must be unique."""
        if isinstance(trajectory, UncertainTrajectory) and trajectory.object_id in self:
            raise KeyError(f"object id {trajectory.object_id!r} already stored")
        self.upsert_many([trajectory])

    def add_all(self, trajectories: Iterable[UncertainTrajectory]) -> None:
        """Insert several trajectories."""
        for trajectory in trajectories:
            self.add(trajectory)

    def remove(self, object_id: object) -> UncertainTrajectory:
        """Remove and return a trajectory.

        Raises:
            KeyError: when the object id is unknown.
        """
        if object_id not in self._trajectories:
            raise KeyError(f"unknown object id {object_id!r}")
        removed = self._trajectories.pop(object_id)
        self._notify([(self._record_change("remove", object_id), None)])
        return removed

    def replace_trajectory(self, trajectory: UncertainTrajectory) -> UncertainTrajectory:
        """Swap in a new trajectory for an already-stored object id.

        This is the mutation an update stream performs: the object keeps its
        identity while its motion (typically an extension of the old polyline)
        is replaced wholesale.  Returns the previous trajectory.

        Raises:
            KeyError: when the object id is not stored.
        """
        previous = self._trajectories.get(getattr(trajectory, "object_id", None))
        if previous is None and isinstance(trajectory, UncertainTrajectory):
            raise KeyError(f"unknown object id {trajectory.object_id!r}")
        self.upsert_many([trajectory])
        return previous

    def upsert(self, trajectory: UncertainTrajectory) -> Optional[UncertainTrajectory]:
        """Insert or replace, returning the previous trajectory when replacing."""
        previous = self._trajectories.get(getattr(trajectory, "object_id", None))
        self.upsert_many([trajectory])
        return previous

    def upsert_many(self, trajectories: Iterable[UncertainTrajectory]) -> None:
        """Insert or replace several trajectories as one batch.

        The batch is validated before anything changes (a bad element raises
        ``TypeError`` and leaves the store untouched).  Each object gets its
        own :class:`ChangeRecord`, exactly as from one :meth:`upsert` per
        element in order, and the listeners hear the batch once.
        """
        batch = list(trajectories)
        if not all(isinstance(item, UncertainTrajectory) for item in batch):
            raise TypeError("the MOD stores UncertainTrajectory objects")
        changes = []
        for trajectory in batch:
            previous = self._trajectories.get(trajectory.object_id)
            self._trajectories[trajectory.object_id] = trajectory
            if previous is None:
                record = self._record_change("add", trajectory.object_id)
            else:
                divergence = _divergence_time(previous, trajectory)
                record = self._record_change("replace", trajectory.object_id, divergence)
            changes.append((record, trajectory))
        if changes:
            self._notify(changes)

    def get(self, object_id: object) -> UncertainTrajectory:
        """Return the trajectory with the given id.

        Raises:
            KeyError: when the object id is unknown.
        """
        if object_id not in self._trajectories:
            raise KeyError(f"unknown object id {object_id!r}")
        return self._trajectories[object_id]

    def __contains__(self, object_id: object) -> bool:
        return object_id in self._trajectories

    def __len__(self) -> int:
        return len(self._trajectories)

    def __iter__(self) -> Iterator[UncertainTrajectory]:
        return iter(self._trajectories.values())

    @property
    def object_ids(self) -> List[object]:
        """All stored object ids (insertion order)."""
        return list(self._trajectories.keys())

    # ------------------------------------------------------------------
    # Aggregate information.
    # ------------------------------------------------------------------

    def common_time_span(self) -> Tuple[float, float]:
        """The time interval covered by *every* stored trajectory.

        Raises:
            ValueError: when the database is empty or the spans are disjoint.
        """
        if not self._trajectories:
            raise ValueError("the database is empty")
        start = max(t.start_time for t in self._trajectories.values())
        end = min(t.end_time for t in self._trajectories.values())
        if end < start:
            raise ValueError("stored trajectories have no common time span")
        return (start, end)

    # ------------------------------------------------------------------
    # Columnar storage.
    # ------------------------------------------------------------------

    def columnar(self):
        """The store's packed column arrays, built lazily and changelog-synced.

        The returned :class:`~repro.trajectories.columnar.ColumnarStore` is
        cached on the MOD and re-synchronized (incrementally, via the
        changelog) on every call, so callers always see the current
        revision.
        """
        from .columnar import ColumnarStore

        if self._columnar is None:
            self._columnar = ColumnarStore(self)
        else:
            self._columnar.sync()
        return self._columnar

    # ------------------------------------------------------------------
    # Index support.
    # ------------------------------------------------------------------

    def default_band_width(self, query_id: object) -> float:
        """``2·(support_i + support_q)`` maximized over the stored pdfs (= 4r).

        The two largest stored supports are kept per revision (one may be
        the query's own), so a call is O(1): rounding is monotone, so
        ``2·(largest other + support_q)`` is the maximum of the pairs.

        Raises:
            ValueError: when the MOD holds no candidate besides the query.
        """
        query_support = self.get(query_id).pdf.support_radius
        revision, largest = self._largest_supports
        if revision < self._supports_moved:
            revision = self._revision  # read first: a racing change then re-runs this
            largest = [
                (object_id, trajectory.pdf.support_radius)
                for object_id, trajectory in heapq.nlargest(
                    2, self._trajectories.items(), key=lambda item: item[1].pdf.support_radius
                )
            ]
            self._largest_supports = (revision, largest)
        others = [support for object_id, support in largest if object_id != query_id]
        if not others:
            raise ValueError("the database holds no candidate trajectories")
        return 2.0 * (others[0] + query_support)

    def build_index(self, kind: str = "rtree", max_box_extent: float | str | None = "auto"):
        """Load a segment box table over every stored trajectory.

        An empty store loads an empty table.

        Args:
            kind: ``"rtree"``, the one index kind's historical name, which
                callers still pass.
            max_box_extent: per-axis cap on one entry's unexpanded box so
                long segments are indexed as several tight slices;
                ``"auto"`` picks 1/32 of the populated region's larger side,
                ``None`` keeps one box per segment.

        Returns:
            A :class:`~repro.index.table.SegmentBoxTable`: the boxes of one
            :func:`~repro.trajectories.columnar.segment_boxes_bulk` pass over
            the packed columns, answering batched
            :meth:`~repro.index.table.SegmentBoxTable.probe` scans.
        """
        from ..index.table import SegmentBoxTable
        from .columnar import segment_boxes_bulk

        if kind != "rtree":
            raise ValueError(f"unknown index kind {kind!r} (expected 'rtree')")
        pack = self.columnar().pack()
        if max_box_extent == "auto":
            x_min, y_min, x_max, y_max = pack.spatial_bounds() if pack.ids else (0.0,) * 4
            span = max(x_max - x_min, y_max - y_min)
            max_box_extent = span / 32.0 if span > 0 else None
        return SegmentBoxTable(
            segment_boxes_bulk(pack, max_extent=max_box_extent),
            max_box_extent=max_box_extent,
        )

    def index(self):
        """The store's own segment box table, synced to the current revision."""
        return self.sync_index()[0]

    def sync_index(self) -> Tuple[object, str, float]:
        """``(index, action, seconds)``: the store's box table, synced.

        The first call loads it (``"bulk"``); later ones patch it in place
        from :meth:`divergences_since` once per revision, whatever the change
        set's size (``"patch"``, or ``"compact"`` when the patch compacted
        the table), or find it ``"current"``.  A changelog that no longer
        reaches back, or a table with no live entry (whose box subdivision
        was picked for no data), reloads it.  Per-store lock.
        """
        with self._index_lock:
            started = time.perf_counter()
            revision = self._revision
            index, synced = self._index
            changed = None if index is None else self.divergences_since(synced)
            if synced == revision:
                action = "current"
            elif changed is None or not len(index):
                index = self.build_index()
                action = "bulk"
            else:
                compactions = index.compactions
                index.patch(changed, self.columnar())
                action = "compact" if index.compactions > compactions else "patch"
            self._index = (index, revision)
        return index, action, time.perf_counter() - started

    def _in_filter_order(self, ids: Iterable[object]) -> List[object]:
        """Stored ``ids`` in the candidate filter's total order.

        By ``str``; distinct ids that share one ``str`` (``7`` and ``"7"``)
        in store insertion order, so the order never depends on a set's
        iteration order or the process's hash seed.
        """
        present = [object_id for object_id in ids if object_id in self._trajectories]
        present.sort(key=str)
        if len(set(map(str, present))) < len(present):
            position = {object_id: k for k, object_id in enumerate(self._trajectories)}
            present.sort(key=lambda object_id: (str(object_id), position[object_id]))
        return present

    def candidates_within_corridor(
        self,
        query_ids: Sequence[object],
        corridors: Sequence[float],
        t_lo: float,
        t_hi: float,
        index,
    ) -> List[List[object]]:
        """Per query, the ids whose indexed boxes come within its corridor.

        One :meth:`~repro.index.table.SegmentBoxTable.probe` scan for every
        query with a finite corridor; an infinite one keeps every other
        stored id.  Each list excludes its query and is in one total order:
        by ``str``, and ids that share a ``str`` in store insertion order, so
        batched runs are reproducible.
        """
        finite = [k for k, corridor in enumerate(corridors) if math.isfinite(corridor)]
        scanned = index.probe([
            index.corridor_probes(self.get(query_ids[k]), corridors[k], t_lo, t_hi)
            for k in finite
        ])
        hits: List[Iterable[object]] = [self._trajectories] * len(query_ids)
        for k, ids in zip(finite, scanned):
            hits[k] = ids
        found = [self._in_filter_order(ids) for ids in hits]
        for query_id, ids in zip(query_ids, found):
            if query_id in ids:
                ids.remove(query_id)
        return found

    # ------------------------------------------------------------------
    # Query support.
    # ------------------------------------------------------------------

    def distance_pack(
        self,
        query_id: object,
        t_lo: float,
        t_hi: float,
        candidate_ids: Optional[Sequence[object]] = None,
    ) -> FunctionPack:
        """Distance functions of (candidate) objects relative to a stored query.

        One batched pass over the packed columnar arrays, bit-identical to
        the scalar builder individual candidates fall back to, kept as the
        columns of a :class:`~repro.geometry.envelope.bulk.FunctionPack`.

        Args:
            query_id: id of the query trajectory (must be stored).
            t_lo: window start.
            t_hi: window end.
            candidate_ids: restrict to these objects (e.g. the output of an
                index probe); defaults to every stored object except the query.

        Returns:
            One row per candidate, in candidate order.
        """
        return self.distance_packs([query_id], t_lo, t_hi, [candidate_ids])[0]

    def distance_packs(
        self,
        query_ids: Sequence[object],
        t_lo: float,
        t_hi: float,
        candidate_ids: Optional[Sequence[Optional[Sequence[object]]]] = None,
    ) -> List[FunctionPack]:
        """:meth:`distance_pack` of many queries over one window, in one pass
        over every (query, candidate) row; ``candidate_ids`` aligns with
        ``query_ids`` (``None`` entries: every other stored object)."""
        groups = [
            (
                [self.get(i) for i in (self._trajectories if chosen is None else chosen)],
                self.get(query_id),
            )
            for query_id, chosen in zip(query_ids, candidate_ids or [None] * len(query_ids))
        ]
        return difference_function_packs(groups, t_lo, t_hi, store=self.columnar())

    def distance_functions(self, *args, **kwargs) -> List[DistanceFunction]:
        """Every function of :meth:`distance_pack` (same arguments), as a list."""
        return list(self.distance_pack(*args, **kwargs))

    def clipped(self, t_lo: float, t_hi: float) -> "MovingObjectsDatabase":
        """A new MOD with every trajectory clipped to ``[t_lo, t_hi]``."""
        return MovingObjectsDatabase(
            trajectory.clipped(t_lo, t_hi) for trajectory in self._trajectories.values()
        )
