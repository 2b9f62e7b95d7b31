"""The changelog write-ahead log: durable, replayable mutation frames.

Every :class:`~repro.trajectories.mod.ChangeRecord` flowing through a
:class:`~repro.trajectories.mod.MovingObjectsDatabase` is appended here as
one self-validating frame, so a crashed process replays the log and lands
on the exact pre-crash store — revision, changelog, and divergence times
included (see ``docs/persistence.md`` for the operational story).

On-disk format
--------------
A WAL file is a 12-byte header followed by frames, append-only::

    [0:8)    magic  b"REPROWAL"
    [8:12)   little-endian uint32 format version (currently 1)

    frame := [0:4)  little-endian uint32: payload byte length
             [4:8)  little-endian uint32: zlib.crc32 of the payload
             [8:8+length) payload (pickled plain-data dict)

The payload dict carries the encoded record (revision, kind, object id,
divergence time) plus, for ``add``/``replace`` mutations, the encoded
trajectory — or, for a ``replace`` made by ``extended()`` from the
trajectory this log last wrote, an *extension* carrying just the new
samples (:mod:`repro.persistence.codec`).  Frames are strictly
revision-ordered within one file.

A reader (:func:`scan_wal`) walks frames until the first one
that fails to validate — a short header, a short payload, an implausible
length, or a checksum mismatch.  Because a crash can only tear the *tail*
(frames are written back to front nowhere; the file only ever grows),
everything before the first invalid frame is trustworthy and everything
from it on is discarded: the scan reports the dropped byte count, and
opening the log for append truncates the torn tail so new frames never
land behind garbage.

Durability is a policy choice (``fsync=``): ``"always"`` fsyncs after
every append (no acknowledged mutation is ever lost, slowest),
``"batch"`` flushes OS buffers per append but fsyncs only on
:meth:`~WriteAheadLog.flush` / checkpoint / close (a kernel crash may lose
the last instants), ``"never"`` leaves syncing entirely to the OS.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import threading
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..obs.logging import get_logger
from ..obs.metrics import MetricsRegistry, NULL_REGISTRY
from ..trajectories.mod import ChangeRecord, Changes, MovingObjectsDatabase
from ..trajectories.trajectory import UncertainTrajectory
from .codec import (
    ExtensionPayload,
    decode_extension,
    decode_record,
    decode_trajectory,
    encode_extension,
    encode_record,
    encode_trajectory,
    extend_trajectory,
    plain_loads,
)

_log = get_logger("persistence.wal")

PathLike = Union[str, Path]

#: File magic + version prefix of every WAL file.
WAL_MAGIC = b"REPROWAL"
WAL_VERSION = 1
_HEADER = WAL_MAGIC + struct.pack("<I", WAL_VERSION)
_FRAME_PREFIX = struct.Struct("<II")

#: Upper bound on one frame's payload; a length field beyond this is
#: treated as tail corruption rather than attempted as an allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: The supported fsync policies, strictest first.
FSYNC_POLICIES = ("always", "batch", "never")


class WalError(RuntimeError):
    """Base class of write-ahead-log failures."""


class WalCorruption(WalError):
    """The log is unreadable beyond tail damage (bad magic, mid-file gap)."""


@dataclass(frozen=True, slots=True)
class WalFrame:
    """One decoded WAL frame: the record plus its trajectory or extension payload."""

    record: ChangeRecord
    trajectory: Optional[UncertainTrajectory]
    extension: Optional[ExtensionPayload] = None

    def resolve(self, mod: MovingObjectsDatabase) -> Optional[UncertainTrajectory]:
        """The post-change trajectory, an extension replayed onto what ``mod``
        stores (KeyError or ValueError when that is not the frame's base)."""
        if self.extension is None:
            return self.trajectory
        return extend_trajectory(mod.get(self.record.object_id), self.extension)


@dataclass(frozen=True, slots=True)
class WalScan:
    """Result of reading one WAL file front to back.

    Attributes:
        frames: every frame that validated, in file (= revision) order.
        valid_bytes: file offset up to which the log is intact; truncating
            here removes exactly the torn tail.
        dropped_bytes: bytes past ``valid_bytes`` (0 for a clean log).
    """

    frames: Tuple[WalFrame, ...]
    valid_bytes: int
    dropped_bytes: int

    @property
    def last_revision(self) -> int:
        """Revision of the last valid frame (0 for an empty log)."""
        return self.frames[-1].record.revision if self.frames else 0


def _encode_frame(
    record: ChangeRecord,
    trajectory: Optional[UncertainTrajectory],
    base: Optional[UncertainTrajectory] = None,
) -> bytes:
    payload_dict: Dict[str, object] = {"record": encode_record(record)}
    if trajectory is not None and base is not None:
        payload_dict["extension"] = encode_extension(base, trajectory)
    elif trajectory is not None:
        payload_dict["trajectory"] = encode_trajectory(trajectory)
    payload = pickle.dumps(payload_dict, protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME_PREFIX.pack(len(payload), zlib.crc32(payload)) + payload


def _decode_payload(payload: bytes) -> WalFrame:
    decoded = plain_loads(payload)
    if not isinstance(decoded, dict):
        raise WalError("frame payload is not a dict")
    record = decode_record(decoded["record"])
    trajectory, extension = decoded.get("trajectory"), decoded.get("extension")
    return WalFrame(
        record,
        None if trajectory is None else decode_trajectory(record.object_id, trajectory),
        None if extension is None else decode_extension(extension),
    )


def _record_only(payload: bytes) -> WalFrame:
    """A frame's record without its trajectory: all the frame index needs."""
    return WalFrame(decode_record(plain_loads(payload)["record"]), None)  # type: ignore[index]


def _frame_ends(data: bytes, offset: int) -> Tuple[List[int], Optional[str]]:
    """End offsets of the frames from ``offset`` on whose length and CRC hold,
    and why the walk stopped short of the end of ``data`` (``None`` if not)."""
    ends: List[int] = []
    total = len(data)
    while offset < total:
        if offset + _FRAME_PREFIX.size > total:
            return ends, "short frame header"
        length, checksum = _FRAME_PREFIX.unpack_from(data, offset)
        if length > MAX_FRAME_BYTES:
            return ends, f"implausible frame length {length}"
        start = offset + _FRAME_PREFIX.size
        offset = start + length
        if offset > total:
            return ends, "short frame payload"
        if zlib.crc32(memoryview(data)[start:offset]) != checksum:
            return ends, "payload checksum mismatch"
        ends.append(offset)
    return ends, None


def _read_log(
    path: Path, strict: bool, decode: Callable[[bytes], WalFrame]
) -> Tuple[List[WalFrame], List[int], int, int]:
    """The valid frames as ``decode`` reads them (a frame it refuses ends the
    valid prefix), their end offsets, and the valid and dropped byte counts."""
    if not path.exists():
        return [], [], 0, 0
    data = path.read_bytes()
    if len(data) < len(_HEADER):
        if strict:
            raise WalCorruption(f"{path}: shorter than the WAL header")
        return [], [], 0, len(data)
    if data[: len(WAL_MAGIC)] != WAL_MAGIC:
        raise WalCorruption(f"{path}: not a WAL file (bad magic)")
    (version,) = struct.unpack_from("<I", data, len(WAL_MAGIC))
    if version != WAL_VERSION:
        raise WalCorruption(
            f"{path}: unsupported WAL version {version} (expected {WAL_VERSION})"
        )
    ends, reason = _frame_ends(data, len(_HEADER))
    frames: List[WalFrame] = []
    valid = len(_HEADER)
    for end in ends:
        try:
            frame = decode(data[valid + _FRAME_PREFIX.size : end])
        except Exception as error:
            # The checksum held, so these are the bytes that were appended:
            # an encoder/decoder mismatch, not a torn write.
            reason = f"payload decode failure: {error}"
            _log.error(
                "%s: frame at offset %d passed its checksum but does not "
                "decode (%s); it and every later frame are unreadable",
                path,
                valid,
                error,
            )
            break
        if frames and frame.record.revision <= frames[-1].record.revision:
            raise WalCorruption(
                f"{path}: frames out of revision order at offset {valid} "
                f"({frames[-1].record.revision} then {frame.record.revision})"
            )
        frames.append(frame)
        valid = end
    dropped = len(data) - valid
    if dropped and strict:
        raise WalCorruption(
            f"{path}: {dropped} unreadable tail byte(s) at offset {valid}"
            + (f" ({reason})" if reason else "")
        )
    if dropped:
        _log.warning(
            "%s: dropping %d torn tail byte(s) at offset %d (%s)",
            path,
            dropped,
            valid,
            reason,
        )
    return frames, ends[: len(frames)], valid, dropped


def scan_wal(path: PathLike, *, strict: bool = False) -> WalScan:
    """Read a WAL file, stopping at (and measuring) any torn tail.

    Args:
        path: the WAL file; a missing file scans as empty.
        strict: raise :class:`WalCorruption` instead of tolerating a torn
            tail — the integrity-audit mode of the operations runbook.

    Raises:
        WalCorruption: when the header is not a WAL header, or (under
            ``strict``) when any tail bytes fail to validate.
    """
    frames, _, valid, dropped = _read_log(Path(path), strict, _decode_payload)
    return WalScan(frames=tuple(frames), valid_bytes=valid, dropped_bytes=dropped)


class WriteAheadLog:
    """Appendable, checksummed log of MOD mutations.

    Opening scans the existing file (if any) into the frame index,
    truncates any torn tail so appends continue from the last valid frame,
    and then accepts :meth:`append` calls — typically wired to
    :meth:`~repro.trajectories.mod.MovingObjectsDatabase.subscribe_changes`
    by a :class:`~repro.persistence.store.PersistentStore`.

    Appends remember each object's last logged trajectory (a reopened log
    none), so a ``replace`` made by ``extended()`` from it is an extension
    frame.

    Args:
        path: the log file (created, with header, when missing).
        fsync: durability policy — one of :data:`FSYNC_POLICIES`.
        registry: metrics sink for the ``repro_persistence_wal_*`` series;
            the no-op registry when ``None``.

    Thread safety: appends, flushes, and truncation serialize on an
    internal lock, so a streaming monitor thread and a checkpoint thread
    can share one log.
    """

    def __init__(
        self,
        path: PathLike,
        *,
        fsync: str = "batch",
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r} (expected {FSYNC_POLICIES})"
            )
        self.path = Path(path)
        self._fsync = fsync
        self._lock = threading.Lock()
        self._registry = registry if registry is not None else NULL_REGISTRY
        self._m_appends = self._registry.counter(
            "repro_persistence_wal_appends_total", "WAL frames appended"
        )
        self._m_bytes = self._registry.counter(
            "repro_persistence_wal_bytes_total", "WAL bytes appended"
        )
        self._m_fsyncs = self._registry.counter(
            "repro_persistence_wal_fsyncs_total", "WAL fsync calls"
        )
        self._m_truncations = self._registry.counter(
            "repro_persistence_wal_truncations_total", "WAL truncation rewrites"
        )
        self._m_repaired = self._registry.counter(
            "repro_persistence_wal_repaired_bytes_total",
            "Torn tail bytes discarded when opening the log",
        )
        self._m_extensions = self._registry.counter(
            "repro_persistence_wal_extension_frames_total",
            "WAL frames written as extensions of the object's last frame",
        )
        # The frame index: frame i is revision _revisions[i] at _ends[i]:_ends[i + 1].
        frames, ends, valid, dropped = _read_log(self.path, False, _record_only)
        self._revisions = [frame.record.revision for frame in frames]
        self._ends = [len(_HEADER)] + ends
        self._last_revision = self._revisions[-1] if frames else 0
        self._written: Dict[object, UncertainTrajectory] = {}
        if self.path.exists():
            if dropped:
                with open(self.path, "r+b") as handle:
                    handle.truncate(valid)
                    handle.flush()
                    os.fsync(handle.fileno())
                self._m_repaired.inc(dropped)
            self._handle: io.BufferedWriter = open(self.path, "ab")
            if self.path.stat().st_size < len(_HEADER):
                # A crash during initial creation can leave a zero-byte or
                # partial-header file (the scan above truncated any partial
                # bytes to 0).  Rewrite the header before appending, or
                # every later frame lands in a headerless file the next
                # scan rejects outright.
                self._write_header()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "ab")
            self._write_header()
            _fsync_directory(self.path.parent)
        self._closed = False

    def _write_header(self) -> None:
        """Write + fsync the file header (always synced: losing the header
        makes the whole log unreadable, whatever the frame fsync policy)."""
        self._handle.write(_HEADER)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def last_revision(self) -> int:
        """Revision of the newest appended frame (0 when the log is empty)."""
        return self._last_revision

    @property
    def frame_count(self) -> int:
        """Number of valid frames currently in the log."""
        return len(self._revisions)

    @property
    def frame_index(self) -> List[Tuple[int, int]]:
        """``(revision, end offset)`` of every frame in the file, in order."""
        return list(zip(self._revisions, self._ends[1:]))

    @property
    def fsync_policy(self) -> str:
        """The configured durability policy."""
        return self._fsync

    def size_bytes(self) -> int:
        """Current on-disk size of the log file."""
        with self._lock:
            if not self._closed:
                self._handle.flush()
        return self.path.stat().st_size

    # ------------------------------------------------------------------
    # Writing.
    # ------------------------------------------------------------------

    def append(
        self,
        record: ChangeRecord,
        trajectory: Optional[UncertainTrajectory] = None,
    ) -> int:
        """Append one mutation frame; returns its byte size (see :meth:`append_many`)."""
        return self.append_many([(record, trajectory)])

    def append_many(self, changes: Changes) -> int:
        """Append one frame per mutation in one write (then one flush or
        fsync: the batch is the durability unit); returns the bytes.

        Raises:
            WalError: when the log is closed.
            ValueError: when the revisions do not strictly extend the log.
        """
        with self._lock:
            if self._closed:
                raise WalError("the write-ahead log is closed")
            last = self._last_revision
            for record, _ in changes:
                if record.revision <= last:
                    raise ValueError(
                        f"frame revision {record.revision} does not extend the log "
                        f"(last appended {last})"
                    )
                last = record.revision
            frames: List[bytes] = []
            extensions = 0
            for record, trajectory in changes:
                base = self._written.pop(record.object_id, None)
                if trajectory is not None:
                    self._written[record.object_id] = trajectory
                extends = (
                    record.kind == "replace"
                    and trajectory is not None
                    and trajectory.extends(base)
                )
                extensions += extends
                frames.append(_encode_frame(record, trajectory, base if extends else None))
            data = b"".join(frames)
            self._handle.write(data)
            if self._fsync == "always":
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self._m_fsyncs.inc()
            elif self._fsync == "batch":
                self._handle.flush()
            self._last_revision = last
            for (record, _), frame in zip(changes, frames):
                self._revisions.append(record.revision)
                self._ends.append(self._ends[-1] + len(frame))
        self._m_appends.inc(len(changes))
        self._m_extensions.inc(extensions)
        self._m_bytes.inc(len(data))
        return len(data)

    def flush(self) -> None:
        """Flush buffers and (except under ``"never"``) fsync to disk."""
        with self._lock:
            if self._closed:
                return
            self._handle.flush()
            if self._fsync != "never":
                os.fsync(self._handle.fileno())
                self._m_fsyncs.inc()

    # ------------------------------------------------------------------
    # Reading and retention.
    # ------------------------------------------------------------------

    def truncate_through(self, revision: int) -> int:
        """Drop every frame with ``record.revision <= revision``.

        The retention half of a checkpoint: once a snapshot at revision
        ``R`` is durable, frames at or before ``R`` are dead weight.  The
        frame index finds the cut by bisection, and the bytes after it are
        copied as far as frames' lengths and CRCs hold (:func:`scan_wal`'s
        valid-prefix rule): nothing is decoded or encoded.  The rewrite is
        atomic (temp file + rename), so a crash mid-truncation leaves the
        previous log intact.

        Returns:
            The number of frames dropped.
        """
        with self._lock:
            if self._closed:
                raise WalError("the write-ahead log is closed")
            self._handle.flush()
            dropped = bisect_right(self._revisions, revision)
            start = self._ends[dropped]
            if dropped == 0 and os.fstat(self._handle.fileno()).st_size == self._ends[-1]:
                return 0  # Nothing to drop and no torn tail behind the index.
            with open(self.path, "rb") as source:
                source.seek(start)
                retained = source.read()
            # Bytes past the indexed frames (a torn tail) are dropped too.
            ends, _ = _frame_ends(retained, 0)
            kept = min(len(ends), len(self._revisions) - dropped)
            temp = self.path.with_name(self.path.name + ".tmp")
            with open(temp, "wb") as handle:
                handle.write(_HEADER)
                handle.write(retained[: ends[kept - 1] if kept else 0])
                handle.flush()
                os.fsync(handle.fileno())
            self._handle.close()
            os.replace(temp, self.path)
            _fsync_directory(self.path.parent)
            self._handle = open(self.path, "ab")
            shift = len(_HEADER) - start
            self._revisions = self._revisions[dropped : dropped + kept]
            self._ends = [end + shift for end in self._ends[dropped : dropped + kept + 1]]
            self._m_truncations.inc()
            _log.debug(
                "truncated %s through revision %d: dropped %d frame(s), kept %d",
                self.path,
                revision,
                dropped,
                kept,
            )
            return dropped

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Flush, fsync (policy permitting), and close the file handle."""
        with self._lock:
            if self._closed:
                return
            self._handle.flush()
            if self._fsync != "never":
                os.fsync(self._handle.fileno())
            self._handle.close()
            self._closed = True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _fsync_directory(directory: Path) -> None:
    """Fsync a directory so a rename inside it is durable (POSIX)."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
