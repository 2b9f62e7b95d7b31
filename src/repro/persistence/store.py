"""The durable tier's front door: restore + the live persistent store.

One data directory holds everything the tier writes::

    <data_dir>/
        changes.wal      the write-ahead log (repro.persistence.wal)
        snapshots/       published snapshots (repro.persistence.snapshot)

:func:`restore` is the crash-recovery path: open the newest valid
snapshot, map its columns, replay the WAL frames past the snapshot
revision (tolerating a torn final frame), and hand back a
:class:`~repro.trajectories.mod.MovingObjectsDatabase` whose revision,
changelog, and per-object revisions are byte-identical to the pre-crash
store — so every revision-keyed layer above (engine caches, shared exports,
the service result cache) resumes as if the process never died.

:class:`PersistentStore` is the steady-state half: it subscribes to the
MOD's change feed so every mutating call lands in the WAL (a batch in one
write) before control returns, and :meth:`~PersistentStore.checkpoint`
publishes a fresh snapshot, truncates the WAL through its revision, and
prunes old snapshots — the unit a background loop (see
:class:`~repro.service.service.QueryService`) runs periodically.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..obs.logging import get_logger
from ..obs.metrics import MetricsRegistry, NULL_REGISTRY
from ..obs.tracing import trace_span
from ..trajectories.mod import Changes, MovingObjectsDatabase
from .snapshot import SnapshotInfo, Snapshotter, load_snapshot
from .wal import WriteAheadLog, scan_wal

_log = get_logger("persistence.store")

PathLike = Union[str, Path]

WAL_NAME = "changes.wal"
SNAPSHOT_DIR_NAME = "snapshots"


class PersistenceError(RuntimeError):
    """The data directory and the live MOD disagree irreconcilably."""


@dataclass(frozen=True, slots=True)
class RestoreResult:
    """What :func:`restore` rebuilt and where it came from.

    Attributes:
        mod: the restored store, columns seeded from the snapshot mmap.
        snapshot: the snapshot the restore started from (``None`` when the
            directory held only a WAL).
        replayed_frames: WAL frames applied past the snapshot revision.
        dropped_bytes: torn-tail bytes the WAL scan discarded (0 for a
            clean shutdown).
        seconds: wall-clock restore time.
    """

    mod: MovingObjectsDatabase
    snapshot: Optional[SnapshotInfo]
    replayed_frames: int
    dropped_bytes: int
    seconds: float


def wal_path(data_dir: PathLike) -> Path:
    """The WAL file of a data directory."""
    return Path(data_dir) / WAL_NAME


def snapshots_path(data_dir: PathLike) -> Path:
    """The snapshots directory of a data directory."""
    return Path(data_dir) / SNAPSHOT_DIR_NAME


def restore(
    data_dir: PathLike,
    *,
    verify: bool = True,
    strict: bool = False,
    registry: Optional[MetricsRegistry] = None,
) -> RestoreResult:
    """Rebuild the MOD recorded in a data directory.

    Opens the newest valid snapshot (skipping half-written ones), builds a
    MOD straight off its mmap pages, then replays every WAL frame newer
    than the snapshot.  An empty or missing directory restores to an empty
    MOD at revision 0 — so one code path serves first boot and warm
    restart alike.

    Args:
        data_dir: the directory :class:`PersistentStore` writes.
        verify: checksum-verify the snapshot files before trusting them.
        strict: raise on a torn WAL tail instead of discarding it (the
            integrity-audit mode; the default matches crash recovery).
        registry: metrics sink for ``repro_persistence_restore_seconds``.

    Raises:
        WalCorruption: when the WAL is damaged beyond its tail, or —
            under ``strict`` — at all.
        PersistenceError: when the WAL tail does not connect to the
            snapshot (a revision gap means the directory mixes histories),
            or an extension frame's base is not the stored trajectory.
    """
    started = time.perf_counter()
    registry = registry if registry is not None else NULL_REGISTRY
    with trace_span("persistence.restore", data_dir=str(data_dir)):
        snapshotter = Snapshotter(snapshots_path(data_dir))
        info = snapshotter.latest()
        if info is not None:
            mod = load_snapshot(info.path, verify=verify).build_mod()
        else:
            mod = MovingObjectsDatabase()
        scan = scan_wal(wal_path(data_dir), strict=strict)
        replayed = 0
        for frame in scan.frames:
            if frame.record.revision <= mod.revision:
                continue  # Already folded into the snapshot.
            if frame.record.revision != mod.revision + 1:
                raise PersistenceError(
                    f"{wal_path(data_dir)}: WAL resumes at revision "
                    f"{frame.record.revision} but the snapshot ends at "
                    f"{mod.revision} — the log does not connect"
                )
            try:
                trajectory = frame.resolve(mod)
            except (KeyError, ValueError) as error:
                raise PersistenceError(
                    f"{wal_path(data_dir)}: cannot replay revision "
                    f"{frame.record.revision} of object {frame.record.object_id!r}: {error}"
                ) from error
            mod.apply_change(frame.record, trajectory)
            replayed += 1
    seconds = time.perf_counter() - started
    registry.histogram(
        "repro_persistence_restore_seconds", help="Warm-restart latency"
    ).observe(seconds)
    if info is not None or replayed or scan.dropped_bytes:
        _log.info(
            "restored %s: revision %d (%s + %d replayed frame(s), "
            "%d torn byte(s) dropped) in %.3fs",
            data_dir,
            mod.revision,
            f"snapshot {info.revision}" if info is not None else "no snapshot",
            replayed,
            scan.dropped_bytes,
            seconds,
        )
    return RestoreResult(
        mod=mod,
        snapshot=info,
        replayed_frames=replayed,
        dropped_bytes=scan.dropped_bytes,
        seconds=seconds,
    )


class PersistentStore:
    """Keeps one MOD durable: WAL per mutation, snapshot per checkpoint.

    Attach it to a live store (typically the one :func:`restore` just
    rebuilt) and every subsequent ``add``/``remove``/``replace`` lands in
    the WAL synchronously before the mutating call returns; durability
    against OS crashes is then the WAL's ``fsync`` policy.  The companion
    :meth:`checkpoint` folds the log into a snapshot.

    Args:
        data_dir: directory for the WAL and snapshots (created if absent).
        mod: the live store; its revision must match the directory's tip
            (both empty, a fresh restore, or a continuing session) —
            attaching a mismatched store would interleave two histories.
        fsync: WAL durability policy (see :class:`WriteAheadLog`).
        retain: snapshots to keep after each checkpoint.
        registry: metrics sink shared with the serving stack.

    Raises:
        PersistenceError: when the MOD's revision disagrees with the
            directory's recorded tip.
    """

    def __init__(
        self,
        data_dir: PathLike,
        mod: MovingObjectsDatabase,
        *,
        fsync: str = "batch",
        retain: int = 2,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._mod = mod
        self._registry = registry if registry is not None else NULL_REGISTRY
        self._snapshotter = Snapshotter(
            snapshots_path(self.data_dir), retain=retain, registry=self._registry
        )
        self._wal = WriteAheadLog(
            wal_path(self.data_dir), fsync=fsync, registry=self._registry
        )
        self._m_checkpoints = self._registry.counter(
            "repro_persistence_checkpoints_total", "Checkpoints completed"
        )
        self._checkpoint_lock = threading.Lock()
        latest = self._snapshotter.latest()
        snapshot_revision = latest.revision if latest is not None else 0
        tip = max(snapshot_revision, self._wal.last_revision)
        if tip != 0 and tip != mod.revision:
            # A fresh (tip 0) directory adopts any store via a baseline
            # snapshot below; a non-empty one must match the store exactly.
            self._wal.close()
            raise PersistenceError(
                f"{self.data_dir}: directory tip is revision {tip} but the "
                f"store is at {mod.revision}; restore() from this directory "
                f"(or start from an empty one) before attaching"
            )
        if latest is None and mod.revision > 0:
            # Adopting a pre-populated store into a fresh directory: without
            # a baseline snapshot the WAL alone could never rebuild it.
            self._snapshotter.write(mod)
        self._listener = self._on_change
        mod.subscribe_changes(self._listener)
        self._closed = False

    @property
    def mod(self) -> MovingObjectsDatabase:
        """The live store this persistence layer shadows."""
        return self._mod

    @property
    def wal(self) -> WriteAheadLog:
        """The underlying write-ahead log (exposed for audits and tests)."""
        return self._wal

    @property
    def snapshotter(self) -> Snapshotter:
        """The underlying snapshot manager."""
        return self._snapshotter

    def _on_change(self, changes: Changes) -> None:
        self._wal.append_many(changes)

    def checkpoint(self) -> SnapshotInfo:
        """Snapshot the store, truncate the WAL through it, prune old state.

        After a checkpoint the WAL holds only frames newer than the newest
        snapshot, which bounds both replay time and log size.

        Thread safe: a manual ``await service.checkpoint()`` and the
        background checkpoint loop land on different executor threads, so
        the snapshot + truncate + prune sequence serializes on a lock —
        otherwise two truncations interleave their scan/rewrite cycles.
        """
        if self._closed:
            raise PersistenceError("the persistent store is closed")
        with self._checkpoint_lock:
            if self._closed:
                raise PersistenceError("the persistent store is closed")
            started = time.perf_counter()
            with trace_span(
                "persistence.checkpoint", revision=self._mod.revision
            ) as span:
                info = self._snapshotter.write(self._mod)
                self._wal.flush()
                span.set("frames_dropped", self._wal.truncate_through(info.revision))
                span.set("bytes_kept", self._wal.size_bytes())
                self._snapshotter.prune()
            self._registry.histogram(
                "repro_persistence_checkpoint_seconds", help="Checkpoint latency"
            ).observe(time.perf_counter() - started)
        self._m_checkpoints.inc()
        return info

    def flush(self) -> None:
        """Force the WAL to disk (fsync, policy permitting)."""
        self._wal.flush()

    def close(self, *, checkpoint: bool = False) -> None:
        """Detach from the MOD and close the WAL (idempotent).

        Args:
            checkpoint: run a final :meth:`checkpoint` first, so the next
                restore maps a snapshot instead of replaying the whole log.
        """
        if self._closed:
            return
        if checkpoint:
            self.checkpoint()
        self._mod.unsubscribe_changes(self._listener)
        self._wal.close()
        self._closed = True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def __enter__(self) -> "PersistentStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
