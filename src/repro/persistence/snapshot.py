"""Columnar snapshots: the MOD's packed state as mmap-ready files.

A snapshot is one directory holding three files::

    snapshot-<revision padded to 12 digits>/
        MANIFEST.json   format marker, revision, counts, per-file checksums
        header.pkl      pickled per-object metadata + MOD bookkeeping
        columns.f64     raw little-endian float64: all ts, all xs, all ys

``columns.f64`` is exactly the :class:`~repro.trajectories.columnar
.ColumnarPack` sample columns concatenated (``ts`` block, then ``xs``,
then ``ys``, each ``samples`` doubles long), so restoring maps the file
with :func:`numpy.memmap` and slices per-object column views straight out
of the page cache — no parse, no copy, and stores larger than RAM fault
pages in lazily.  Each restored trajectory owns its views as its columns
(:meth:`~repro.trajectories.trajectory.UncertainTrajectory.from_columns`),
so the restored store packs them without reading a sample, and the
``samples`` tuple of a trajectory is built only when something reads it.
``header.pkl`` carries what the columns cannot: object ids and per-object
lengths/radii/pdf specs (in pack order), plus the MOD's revision,
per-object revisions, and changelog — verbatim, so a restored store's
``changes_since`` answers exactly like the original's.

Writes are atomic: everything lands in a ``.tmp-*`` sibling first, files
and directory are fsynced, and one :func:`os.replace` publishes the
snapshot under its final name.  A crash mid-write leaves only a ``.tmp-*``
directory, which is never listed as a snapshot and is swept by the next
:meth:`Snapshotter.prune`.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..obs.logging import get_logger
from ..obs.metrics import MetricsRegistry, NULL_REGISTRY
from ..obs.tracing import trace_span
from ..trajectories.columnar import ColumnarPack
from ..trajectories.mod import ChangeRecord, MovingObjectsDatabase
from ..trajectories.trajectory import UncertainTrajectory
from .codec import (
    PdfSpec,
    decode_pdf,
    decode_record,
    encode_pdf,
    encode_record,
    plain_load,
)
from .wal import _fsync_directory

_log = get_logger("persistence.snapshot")

PathLike = Union[str, Path]

MANIFEST_NAME = "MANIFEST.json"
HEADER_NAME = "header.pkl"
COLUMNS_NAME = "columns.f64"
SNAPSHOT_FORMAT = "repro-snapshot"
SNAPSHOT_VERSION = 1
_DIR_PREFIX = "snapshot-"
_TMP_PREFIX = ".tmp-"
_CRC_CHUNK = 8 * 1024 * 1024


class SnapshotError(RuntimeError):
    """Base class of snapshot failures."""


class SnapshotCorruption(SnapshotError):
    """A snapshot directory failed validation (manifest, sizes, checksums)."""


@dataclass(frozen=True, slots=True)
class SnapshotInfo:
    """One published snapshot: where it lives and what it contains."""

    path: Path
    revision: int
    objects: int
    samples: int
    bytes: int


def _crc32_of(path: Path) -> int:
    """Chunked CRC32 of a file (bounded memory for stores larger than RAM)."""
    crc = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_CRC_CHUNK)
            if not chunk:
                return crc
            crc = zlib.crc32(chunk, crc)


def _write_file(path: Path, data: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def _read_manifest(path: Path) -> Dict[str, object]:
    manifest_path = path / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text())
    except FileNotFoundError:
        raise SnapshotCorruption(f"{path}: no {MANIFEST_NAME}") from None
    except (OSError, ValueError) as error:
        raise SnapshotCorruption(f"{manifest_path}: unreadable: {error}") from error
    if (
        not isinstance(manifest, dict)
        or manifest.get("format") != SNAPSHOT_FORMAT
        or manifest.get("version") != SNAPSHOT_VERSION
    ):
        raise SnapshotCorruption(f"{manifest_path}: not a v{SNAPSHOT_VERSION} manifest")
    return manifest


def _validate_layout(path: Path, manifest: Dict[str, object]) -> None:
    """Cheap validity check: the manifest's files exist at their exact sizes."""
    files = manifest.get("files")
    if not isinstance(files, dict):
        raise SnapshotCorruption(f"{path}: manifest lacks a file table")
    for name in (HEADER_NAME, COLUMNS_NAME):
        entry = files.get(name)
        if not isinstance(entry, dict):
            raise SnapshotCorruption(f"{path}: manifest lacks {name}")
        file_path = path / name
        if not file_path.exists():
            raise SnapshotCorruption(f"{path}: missing {name}")
        expected = int(entry["bytes"])  # type: ignore[index]
        actual = file_path.stat().st_size
        if actual != expected:
            raise SnapshotCorruption(
                f"{file_path}: {actual} bytes on disk, manifest says {expected}"
            )


def _verify_checksums(path: Path, manifest: Dict[str, object]) -> None:
    files = manifest["files"]
    assert isinstance(files, dict)
    for name in (HEADER_NAME, COLUMNS_NAME):
        entry = files[name]
        assert isinstance(entry, dict)
        expected = int(entry["crc32"])
        actual = _crc32_of(path / name)
        if actual != expected:
            raise SnapshotCorruption(
                f"{path / name}: checksum mismatch "
                f"(computed {actual}, manifest says {expected})"
            )


def read_snapshot_info(path: PathLike) -> SnapshotInfo:
    """Validate a snapshot directory's layout and return its description.

    Raises:
        SnapshotCorruption: when the manifest is missing/invalid or the
            files do not match it (checksums are *not* verified here — see
            :func:`load_snapshot`'s ``verify``).
    """
    path = Path(path)
    manifest = _read_manifest(path)
    _validate_layout(path, manifest)
    files = manifest["files"]
    assert isinstance(files, dict)
    total = sum(int(entry["bytes"]) for entry in files.values())  # type: ignore[index]
    return SnapshotInfo(
        path=path,
        revision=int(manifest["revision"]),  # type: ignore[arg-type]
        objects=int(manifest["objects"]),  # type: ignore[arg-type]
        samples=int(manifest["samples"]),  # type: ignore[arg-type]
        bytes=total,
    )


class MappedSnapshot:
    """A loaded snapshot: lazily mapped columns + restored-MOD factory.

    The columns file is opened with :func:`numpy.memmap`, so slicing an
    object's ``(ts, xs, ys)`` touches only that object's pages — a store
    larger than RAM restores fine and pages in on demand.  Each restored
    trajectory owns its object's column views; its samples tuple is built
    on first read.
    """

    def __init__(self, path: PathLike, *, verify: bool = True) -> None:
        self.path = Path(path)
        self.info = read_snapshot_info(self.path)
        manifest = _read_manifest(self.path)
        if verify:
            _verify_checksums(self.path, manifest)
        try:
            with open(self.path / HEADER_NAME, "rb") as handle:
                header = plain_load(handle)
        except pickle.UnpicklingError as error:
            raise SnapshotCorruption(
                f"{self.path / HEADER_NAME}: {error}"
            ) from error
        if not isinstance(header, dict):
            raise SnapshotCorruption(
                f"{self.path / HEADER_NAME}: header is not a dict"
            )
        self.revision: int = int(header["revision"])
        self._ids: List[object] = list(header["ids"])
        self._lengths: List[int] = [int(n) for n in header["lengths"]]
        self._radii: List[float] = [float(r) for r in header["radii"]]
        self._pdfs: List[PdfSpec] = list(header["pdfs"])
        self._object_revisions: Dict[object, int] = dict(header["object_revisions"])
        self._changelog: List[ChangeRecord] = [
            decode_record(encoded) for encoded in header["changelog"]
        ]
        samples = sum(self._lengths)
        if samples != self.info.samples:
            raise SnapshotCorruption(
                f"{self.path}: header lengths sum to {samples}, "
                f"manifest says {self.info.samples}"
            )
        if samples:
            self._raw: np.ndarray = np.memmap(
                self.path / COLUMNS_NAME, dtype="<f8", mode="r", shape=(3 * samples,)
            )
        else:
            self._raw = np.zeros(0, dtype="<f8")
        # Slice through a plain-ndarray view: pages still fault in lazily
        # (same buffer), but per-object slicing skips the memmap subclass's
        # __array_finalize__ overhead — it dominates a many-object restore.
        flat = self._raw.view(np.ndarray)
        self._ts = flat[:samples]
        self._xs = flat[samples : 2 * samples]
        self._ys = flat[2 * samples :]
        starts = [0] * len(self._lengths)
        offset = 0
        for slot, length in enumerate(self._lengths):
            starts[slot] = offset
            offset += length
        self._starts = starts
        self._slot_by_id: Dict[object, int] = {
            object_id: slot for slot, object_id in enumerate(self._ids)
        }

    @property
    def object_ids(self) -> Tuple[object, ...]:
        """Snapshotted object ids in pack (= MOD insertion) order."""
        return tuple(self._ids)

    def columns(self, object_id: object) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only mmap ``(ts, xs, ys)`` views of one object's samples."""
        slot = self._slot_by_id[object_id]
        start = self._starts[slot]
        stop = start + self._lengths[slot]
        return (self._ts[start:stop], self._xs[start:stop], self._ys[start:stop])

    def trajectory(self, object_id: object) -> UncertainTrajectory:
        """A trajectory over the object's mapped columns.

        The samples were validated when first stored and are
        checksum-guarded on disk, so no ordering pass runs, and the sample
        tuple is built only when ``.samples`` is first read — a restore
        touches no column pages it does not need.
        """
        slot = self._slot_by_id[object_id]
        radius = self._radii[slot]
        return UncertainTrajectory.from_columns(
            object_id, self.columns(object_id), radius, decode_pdf(self._pdfs[slot], radius)
        )

    def build_mod(self) -> MovingObjectsDatabase:
        """A MOD at exactly the snapshotted state, over the mapped columns."""
        return MovingObjectsDatabase.restore_state(
            (self.trajectory(object_id) for object_id in self._ids),
            self.revision,
            self._object_revisions,
            self._changelog,
        )


def load_snapshot(path: PathLike, *, verify: bool = True) -> MappedSnapshot:
    """Open one snapshot directory (checksum-verified unless ``verify=False``)."""
    return MappedSnapshot(path, verify=verify)


class Snapshotter:
    """Writes, lists, and prunes the snapshots of one data directory.

    Args:
        directory: the ``snapshots/`` directory (created on first write).
        retain: published snapshots to keep; :meth:`prune` removes older
            ones and sweeps orphaned ``.tmp-*`` directories.
        registry: metrics sink for the ``repro_persistence_snapshot*``
            series; the no-op registry when ``None``.
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        retain: int = 2,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if retain < 1:
            raise ValueError("retain must be at least 1")
        self.directory = Path(directory)
        self.retain = retain
        self._write_lock = threading.Lock()
        self._registry = registry if registry is not None else NULL_REGISTRY
        self._m_snapshots = self._registry.counter(
            "repro_persistence_snapshots_total", "Snapshots published"
        )
        self._m_pruned = self._registry.counter(
            "repro_persistence_snapshots_pruned_total", "Snapshots pruned"
        )
        self._m_seconds = self._registry.histogram(
            "repro_persistence_snapshot_seconds", help="Snapshot write latency"
        )
        self._m_bytes = self._registry.gauge(
            "repro_persistence_snapshot_bytes", "Size of the newest snapshot"
        )

    # ------------------------------------------------------------------
    # Writing.
    # ------------------------------------------------------------------

    #: Capture attempts before :meth:`write` gives up on a store that is
    #: mutating faster than its state can be read.
    CAPTURE_ATTEMPTS = 16

    def _capture(
        self, mod: MovingObjectsDatabase
    ) -> Tuple[int, ColumnarPack, Dict[str, object]]:
        """A consistent ``(revision, pack, header)`` view of a live MOD.

        The MOD is documented as concurrently mutable (a streaming monitor
        thread while checkpoints run on an executor thread), and its
        revision is monotonic, so optimistic capture is sound: read the
        revision, read everything else, and retry whenever the revision
        moved underneath — equal revisions before and after prove no
        mutation interleaved.  Without this, a mutation landing between
        the pack build and the bookkeeping reads would publish a manifest
        revision claiming data the columns do not contain, and the
        checkpoint's WAL truncation would then delete the acknowledged
        frame for good.
        """
        for _ in range(self.CAPTURE_ATTEMPTS):
            revision = mod.revision
            try:
                pack = mod.columnar().pack()
                header: Dict[str, object] = {
                    "ids": list(pack.ids),
                    "lengths": pack.lengths.tolist(),
                    "radii": pack.radii.tolist(),
                    "pdfs": [
                        encode_pdf(mod.get(object_id).pdf)
                        for object_id in pack.ids
                    ],
                    "revision": revision,
                    "object_revisions": {
                        object_id: mod.object_revision(object_id)
                        for object_id in pack.ids
                    },
                    "changelog": [
                        encode_record(record)
                        for record in mod.changelog_records()
                    ],
                }
            except Exception:
                if mod.revision != revision:
                    continue  # A concurrent mutation tore the reads.
                raise
            if mod.revision == revision:
                return revision, pack, header
        raise SnapshotError(
            f"no stable view after {self.CAPTURE_ATTEMPTS} attempts: the "
            "store is mutating faster than a snapshot can capture it"
        )

    def write(self, mod: MovingObjectsDatabase) -> SnapshotInfo:
        """Publish a snapshot of the MOD's current state atomically.

        Re-publishing an already-snapshotted revision returns the existing
        snapshot untouched (checkpoints at an idle store are free).
        Concurrent callers serialize on an internal lock, and the captured
        state is revision-consistent even while other threads mutate the
        MOD (see :meth:`_capture`).
        """
        started = time.perf_counter()
        with self._write_lock, trace_span(
            "persistence.snapshot", revision=mod.revision
        ):
            revision, pack, header = self._capture(mod)
            existing = self._info_if_valid(self._path_for(revision))
            if existing is not None:
                return existing
            header_bytes = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
            columns = np.concatenate(
                [
                    np.ascontiguousarray(pack.ts, dtype="<f8"),
                    np.ascontiguousarray(pack.xs, dtype="<f8"),
                    np.ascontiguousarray(pack.ys, dtype="<f8"),
                ]
            )
            column_bytes = columns.tobytes()
            manifest = {
                "format": SNAPSHOT_FORMAT,
                "version": SNAPSHOT_VERSION,
                "revision": revision,
                "objects": len(pack.ids),
                "samples": pack.sample_count,
                "files": {
                    HEADER_NAME: {
                        "bytes": len(header_bytes),
                        "crc32": zlib.crc32(header_bytes),
                    },
                    COLUMNS_NAME: {
                        "bytes": len(column_bytes),
                        "crc32": zlib.crc32(column_bytes),
                    },
                },
            }
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = self.directory / f"{_TMP_PREFIX}{revision:012d}-{os.getpid()}"
            if tmp.exists():
                shutil.rmtree(tmp)
            tmp.mkdir()
            try:
                _write_file(tmp / COLUMNS_NAME, column_bytes)
                _write_file(tmp / HEADER_NAME, header_bytes)
                _write_file(
                    tmp / MANIFEST_NAME,
                    json.dumps(manifest, indent=2, default=str).encode(),
                )
                _fsync_directory(tmp)
                final = self._path_for(revision)
                if final.is_dir():
                    # Only an *invalid* directory can still be here (a
                    # valid one returned early above, and writers hold the
                    # lock); clear it or os.replace fails with ENOTEMPTY
                    # and every retry at this revision fails the same way.
                    shutil.rmtree(final)
                os.replace(tmp, final)
                _fsync_directory(self.directory)
            except BaseException:
                shutil.rmtree(tmp, ignore_errors=True)
                raise
        info = read_snapshot_info(final)
        elapsed = time.perf_counter() - started
        self._m_snapshots.inc()
        self._m_seconds.observe(elapsed)
        self._m_bytes.set(info.bytes)
        _log.info(
            "published snapshot revision %d: %d object(s), %d sample(s), "
            "%d byte(s) in %.3fs",
            revision,
            info.objects,
            info.samples,
            info.bytes,
            elapsed,
        )
        return info

    def _path_for(self, revision: int) -> Path:
        return self.directory / f"{_DIR_PREFIX}{revision:012d}"

    @staticmethod
    def _info_if_valid(path: Path) -> Optional[SnapshotInfo]:
        if not path.is_dir():
            return None
        try:
            return read_snapshot_info(path)
        except SnapshotCorruption:
            return None

    # ------------------------------------------------------------------
    # Listing and retention.
    # ------------------------------------------------------------------

    def list_snapshots(self) -> List[SnapshotInfo]:
        """Every *valid* published snapshot, oldest first.

        Invalid directories (half-written, tampered) are skipped with a
        warning — restore never trips over them.
        """
        if not self.directory.is_dir():
            return []
        found: List[SnapshotInfo] = []
        for entry in sorted(self.directory.iterdir()):
            if not entry.name.startswith(_DIR_PREFIX):
                continue
            info = self._info_if_valid(entry)
            if info is None:
                _log.warning("skipping invalid snapshot directory %s", entry)
                continue
            found.append(info)
        found.sort(key=lambda info: info.revision)
        return found

    def latest(self) -> Optional[SnapshotInfo]:
        """The newest valid snapshot, or ``None`` when there is none."""
        snapshots = self.list_snapshots()
        return snapshots[-1] if snapshots else None

    def prune(self) -> int:
        """Drop all but the ``retain`` newest snapshots + every tmp orphan.

        Returns:
            The number of directories removed.
        """
        removed = 0
        if not self.directory.is_dir():
            return removed
        for entry in self.directory.iterdir():
            if entry.name.startswith(_TMP_PREFIX):
                shutil.rmtree(entry, ignore_errors=True)
                removed += 1
        snapshots = self.list_snapshots()
        for info in snapshots[: -self.retain] if len(snapshots) > self.retain else []:
            shutil.rmtree(info.path, ignore_errors=True)
            removed += 1
            self._m_pruned.inc()
            _log.debug("pruned snapshot %s", info.path)
        return removed
