"""Shared-memory editions of a MOD's packed columns.

The process-backed :class:`~repro.parallel.ShardedEngine` never ships
trajectories to its workers.  This module gives it *editions* in place of
that payload: the parent exports the store's packed columns
(:class:`~repro.trajectories.columnar.ColumnarStore` layout — ``ts/xs/ys``
sample columns plus per-object lengths and radii) into named
:class:`multiprocessing.shared_memory.SharedMemory` segments, and workers
attach by name and build zero-copy NumPy views over the same physical pages.

Edition layout
--------------
An export is an ordered chain of segments: one *base* edition holding every
object, followed by small *patch* editions holding only the objects a
changelog sync found changed (plus the ids it found removed).  Re-applying
the chain in order reproduces the store's current per-object columns, so a
worker attaches at most ``1 + max_patch_segments`` small segments instead of
receiving the full store again after every mutation.  When the chain grows
past ``max_patch_segments`` (or the changelog no longer reaches back) the
parent *rebases*: it writes one fresh base edition and unlinks the old
chain.  Unlink-while-mapped is safe on POSIX — workers still holding views
into a retired edition keep valid pages until their own maps close.

Each segment is laid out as::

    [0:8)            little-endian uint64: pickled-header byte length
    [8:8+len)        pickled header dict (ids, removed ids, per-object
                     lengths and radii, total sample count)
    [aligned...]     float64 columns, back to back: ts, xs, ys

Ownership and naming
--------------------
Segments are named ``repro-cols-<pid>-<export>-<edition>`` and are owned by
the parent-side :class:`SharedColumnarStore` alone: it unlinks them on
:meth:`~SharedColumnarStore.close` (context-manager exit) or, failing that,
from a ``weakref.finalize`` hook at garbage collection / interpreter
shutdown.  Attachments never touch the ``resource_tracker`` bookkeeping:
pool workers inherit the parent's tracker daemon, whose per-name cache is a
set, so an attach-side registration is a no-op and the owner's ``unlink``
performs the single matching deregistration.  (Attachments also drop the
stdlib :class:`SharedMemory` handle immediately in favour of a bare
:class:`mmap.mmap` — see :func:`_attach_map` — which both sidesteps the
handle's register-on-attach and keeps interpreter shutdown silent while
NumPy views are still alive.)
"""

from __future__ import annotations

import itertools
import mmap
import os
import pickle
import struct
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.logging import get_logger
from .mod import MovingObjectsDatabase
from .trajectory import TrajectorySample, Trajectory, UncertainTrajectory

_log = get_logger("trajectories.shared")

#: Payload alignment inside a segment (comfortably above float64's 8 bytes).
_ALIGN = 16

#: Distinguishes exports within one parent process so segment names never
#: collide between engine instances.
_export_counter = itertools.count(1)


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _destroy(segment: shared_memory.SharedMemory) -> None:
    """Close and unlink one owned segment, tolerating stragglers."""
    try:
        segment.close()
    except BufferError:  # pragma: no cover - exported views still alive
        pass
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


def _release_segments(segments: List[shared_memory.SharedMemory]) -> None:
    """Unlink every owned segment (shared with the GC finalizer)."""
    while segments:
        _destroy(segments.pop())


def _create_segment(name: str, size: int) -> shared_memory.SharedMemory:
    """Create a named segment, suffixing on the (unlikely) name collision."""
    candidate = name
    for attempt in itertools.count(1):
        try:
            return shared_memory.SharedMemory(
                name=candidate, create=True, size=size
            )
        except FileExistsError:  # pragma: no cover - stale foreign segment
            candidate = f"{name}-{attempt}"
    raise AssertionError("unreachable")  # pragma: no cover


def _write_edition(
    name: str,
    ids: Sequence[object],
    removed: Sequence[object],
    lengths: Sequence[int],
    radii: Sequence[float],
    ts: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
) -> shared_memory.SharedMemory:
    """Serialize one edition (header + packed columns) into a new segment."""
    header = pickle.dumps(
        {
            "ids": tuple(ids),
            "removed": tuple(removed),
            "lengths": [int(length) for length in lengths],
            "radii": [float(radius) for radius in radii],
            "samples": int(ts.size),
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    payload_offset = _aligned(8 + len(header))
    segment = _create_segment(name, payload_offset + 3 * 8 * int(ts.size))
    buffer = segment.buf
    struct.pack_into("<Q", buffer, 0, len(header))
    buffer[8 : 8 + len(header)] = header
    if ts.size:
        flat = np.frombuffer(
            buffer, dtype=np.float64, count=3 * ts.size, offset=payload_offset
        )
        count = ts.size
        flat[:count] = ts
        flat[count : 2 * count] = xs
        flat[2 * count :] = ys
        del flat
    return segment


def _read_edition(
    buffer,
) -> Tuple[dict, np.ndarray, np.ndarray, np.ndarray]:
    """Header dict plus zero-copy ``(ts, xs, ys)`` views of one edition."""
    (header_length,) = struct.unpack_from("<Q", buffer, 0)
    header = pickle.loads(bytes(buffer[8 : 8 + header_length]))
    count = header["samples"]
    if count == 0:
        empty = np.zeros(0)
        return header, empty, empty, empty
    flat = np.frombuffer(
        buffer,
        dtype=np.float64,
        count=3 * count,
        offset=_aligned(8 + header_length),
    )
    return header, flat[:count], flat[count : 2 * count], flat[2 * count :]


def _attach_map(name: str) -> mmap.mmap:
    """A read-only mapping of one segment, independent of the stdlib handle.

    The transient :class:`SharedMemory` handle is closed immediately: the
    returned :class:`mmap.mmap` keeps the pages alive on its own, and —
    unlike ``SharedMemory.__del__`` — an mmap garbage-collected while NumPy
    views still reference it simply lives until the views do, instead of
    spraying ``BufferError`` tracebacks at interpreter shutdown.  The
    handle's register-on-attach is left alone: the tracker's per-name cache
    is a set shared with the segment's owner (pool workers inherit the
    parent's tracker daemon), so the registration is a no-op consumed once
    by the owner's ``unlink``.

    Raises:
        FileNotFoundError: when no segment of this name exists (owner
            closed or rebased past the caller's descriptor).
    """
    segment = shared_memory.SharedMemory(name=name)
    try:
        return mmap.mmap(segment._fd, segment.size, access=mmap.ACCESS_READ)
    finally:
        segment.close()


@dataclass(frozen=True, slots=True)
class SharedPackDescriptor:
    """A tiny picklable handle to one exported column chain.

    Attributes:
        segments: segment names, base edition first, patches in apply order.
        revision: the MOD revision the chain reproduces.
    """

    segments: Tuple[str, ...]
    revision: int


class SharedColumnarStore:
    """Parent-side exporter: one MOD's columns as shared-memory editions.

    Args:
        mod: the :class:`~repro.trajectories.mod.MovingObjectsDatabase`
            whose packed columns are exported.
        max_patch_segments: patch-chain length past which the next sync
            rebases into a fresh base edition.

    The store owns its segments exclusively: :meth:`close` (or garbage
    collection of the store, or interpreter shutdown — a
    ``weakref.finalize`` hook covers both) unlinks every one of them, so a
    run leaks nothing into ``/dev/shm``.  Usable as a context manager.
    """

    def __init__(
        self, mod: MovingObjectsDatabase, *, max_patch_segments: int = 4
    ) -> None:
        self._mod = mod
        self._prefix = f"repro-cols-{os.getpid()}-{next(_export_counter)}"
        self._edition = itertools.count(1)
        self._max_patch_segments = max_patch_segments
        self._revision: Optional[int] = None
        #: Owned segments, base first.  Mutated in place — the GC finalizer
        #: holds this same list object.
        self._segments: List[shared_memory.SharedMemory] = []
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _release_segments, self._segments
        )
        self.sync()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def revision(self) -> Optional[int]:
        """MOD revision of the exported chain."""
        return self._revision

    def segment_names(self) -> Tuple[str, ...]:
        """Names of the currently owned segments, base edition first."""
        return tuple(segment.name for segment in self._segments)

    def descriptor(self) -> SharedPackDescriptor:
        """The picklable handle workers attach with (chain + revision)."""
        if self._closed:
            raise ValueError("the shared store is closed")
        assert self._revision is not None
        return SharedPackDescriptor(
            segments=self.segment_names(), revision=self._revision
        )

    # ------------------------------------------------------------------
    # Synchronization.
    # ------------------------------------------------------------------

    def sync(self) -> bool:
        """Bring the exported chain up to date; True when anything changed.

        Changed objects (per the MOD changelog) are re-packed into one new
        *patch* edition; removals ride along as ids in the patch header.
        A sync that cannot patch — first export, changelog out of reach, or
        a chain already ``max_patch_segments`` long — *rebases* instead,
        unlinking the old chain after the fresh base edition is in place.
        """
        if self._closed:
            raise ValueError("the shared store is closed")
        mod = self._mod
        if self._revision == mod.revision:
            return False
        changes = (
            None if self._revision is None else mod.changes_since(self._revision)
        )
        if changes is None or len(self._segments) > self._max_patch_segments:
            self._rebase()
        else:
            removed: Dict[object, None] = {}
            changed: Dict[object, None] = {}
            for record in changes:
                if record.kind == "remove" or record.object_id not in mod:
                    removed[record.object_id] = None
                    changed.pop(record.object_id, None)
                else:
                    # An id removed and re-added stays in ``removed`` too:
                    # attachments drop it first and append it again, which
                    # is where the parent's insertion order now has it.
                    changed[record.object_id] = None
            if removed or changed:
                self._append_patch(tuple(changed), tuple(removed))
        self._revision = mod.revision
        return True

    def _next_name(self) -> str:
        return f"{self._prefix}-{next(self._edition)}"

    def _rebase(self) -> None:
        """Export one fresh base edition, then retire the old chain."""
        pack = self._mod.columnar().pack()
        segment = _write_edition(
            self._next_name(),
            pack.ids,
            (),
            pack.lengths,
            pack.radii,
            pack.ts,
            pack.xs,
            pack.ys,
        )
        retired = self._segments[:]
        self._segments[:] = [segment]
        for old in retired:
            _destroy(old)
        _log.debug(
            "rebased %s: %d objects, retired %d segment(s)",
            segment.name,
            len(pack.ids),
            len(retired),
        )

    def _append_patch(
        self, changed_ids: Tuple[object, ...], removed: Tuple[object, ...]
    ) -> None:
        store = self._mod.columnar()
        columns = [store.columns(object_id) for object_id in changed_ids]
        empty = np.zeros(0)
        segment = _write_edition(
            self._next_name(),
            changed_ids,
            removed,
            [ts.size for ts, _, _ in columns],
            [store.radius_of(object_id) for object_id in changed_ids],
            np.concatenate([ts for ts, _, _ in columns]) if columns else empty,
            np.concatenate([xs for _, xs, _ in columns]) if columns else empty,
            np.concatenate([ys for _, _, ys in columns]) if columns else empty,
        )
        self._segments.append(segment)
        _log.debug(
            "patched %s: %d changed, %d removed (chain length %d)",
            segment.name,
            len(changed_ids),
            len(removed),
            len(self._segments),
        )

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Unlink every owned segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _log.debug("closing shared store %s (%d segment(s))",
                   self._prefix, len(self._segments))
        _release_segments(self._segments)

    def __enter__(self) -> "SharedColumnarStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AttachedPack:
    """Worker-side view of one exported chain: columns without copies.

    Attaching applies the edition chain in order, leaving one zero-copy
    ``(ts, xs, ys)`` view triple (plus the uncertainty radius) per live
    object.  :meth:`trajectory` reconstructs the lightweight
    :class:`UncertainTrajectory` shell the engine's object-level paths need
    (query clipping, probe bounds); the heavy per-sample data never leaves
    shared memory — :meth:`member_database` links the rebuilt MOD back to
    this pack as its columnar seed, so every kernel (corridor filtering,
    band bracketing, index bulk-load) reads the parent's pages directly.

    Reconstructed trajectories carry the default
    :class:`~repro.uncertainty.uniform.UniformDiskPDF`: workers only
    ever evaluate queries whose band width the parent already resolved
    against the full store's pdfs, and no worker-side code path consults a
    pdf — the oracle tests pin the resulting answers byte-identical.
    """

    def __init__(self, descriptor: SharedPackDescriptor) -> None:
        self.revision = descriptor.revision
        self._maps: List[mmap.mmap] = []
        self._columns: Dict[
            object, Tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}
        self._radii: Dict[object, float] = {}
        self._built: Dict[object, UncertainTrajectory] = {}
        for name in descriptor.segments:
            mapping = _attach_map(name)
            self._maps.append(mapping)
            header, ts, xs, ys = _read_edition(mapping)
            for object_id in header["removed"]:
                self._columns.pop(object_id, None)
                self._radii.pop(object_id, None)
            offset = 0
            for object_id, length, radius in zip(
                header["ids"], header["lengths"], header["radii"]
            ):
                self._columns[object_id] = (
                    ts[offset : offset + length],
                    xs[offset : offset + length],
                    ys[offset : offset + length],
                )
                self._radii[object_id] = radius
                offset += length

    @property
    def ids(self) -> Tuple[object, ...]:
        """Live object ids after applying the whole chain."""
        return tuple(self._columns)

    def columns(
        self, object_id: object
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy ``(ts, xs, ys)`` views of one object."""
        return self._columns[object_id]

    def radius_of(self, object_id: object) -> float:
        """Uncertainty radius of one object."""
        return self._radii[object_id]

    def trajectory(self, object_id: object) -> UncertainTrajectory:
        """The reconstructed (memoized) trajectory shell of one object."""
        built = self._built.get(object_id)
        if built is None:
            ts, xs, ys = self._columns[object_id]
            built = UncertainTrajectory(
                object_id,
                [
                    TrajectorySample(x, y, t)
                    for x, y, t in zip(xs.tolist(), ys.tolist(), ts.tolist())
                ],
                self._radii[object_id],
            )
            self._built[object_id] = built
        return built

    def columns_for(
        self, trajectory: Trajectory
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Columnar-seed hook: shared views for a trajectory built here.

        The identity check mirrors :meth:`ColumnarStore.columns_for`, so a
        seeded member store can never pair stale columns with a newer
        trajectory object.
        """
        built = self._built.get(trajectory.object_id)
        if built is trajectory:
            return self._columns[trajectory.object_id]
        return None

    def member_database(
        self, member_ids: Iterable[object]
    ) -> MovingObjectsDatabase:
        """A MOD over the members' reconstructed shells, column-seeded here.

        Raises:
            KeyError: when a requested member is not in the chain (the
                parent always syncs the export before building tasks, so
                this indicates a stale descriptor).
        """
        mod = MovingObjectsDatabase(
            self.trajectory(object_id) for object_id in member_ids
        )
        mod.share_columns_with(self)
        return mod

    def close(self) -> None:
        """Detach from the segments (views still alive keep their pages)."""
        while self._maps:
            mapping = self._maps.pop()
            try:
                mapping.close()
            except BufferError:  # pragma: no cover - live views; GC collects
                pass
