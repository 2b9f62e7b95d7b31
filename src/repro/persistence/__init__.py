"""The durable tier: a changelog write-ahead log + columnar snapshots.

Turns the in-memory :class:`~repro.trajectories.mod.MovingObjectsDatabase`
into a crash-safe store with seconds-scale warm restart:

* :class:`WriteAheadLog` — every mutation, as a length-prefixed
  CRC-checksummed frame, durable per the configured fsync policy;
* :class:`Snapshotter` / :func:`load_snapshot` — the packed columns plus
  per-object headers as mmap-ready files, published atomically;
* :func:`restore` — newest valid snapshot + WAL-tail replay (torn final
  frame tolerated) → a MOD byte-identical to the pre-crash original;
* :class:`PersistentStore` — the steady-state wiring: WAL per mutation,
  :meth:`~PersistentStore.checkpoint` per interval.

``QueryService(data_dir=...)`` wires all of this into the serving stack;
``docs/persistence.md`` documents the formats and the operations runbook.
"""

from .codec import (
    decode_record,
    decode_trajectory,
    encode_record,
    encode_trajectory,
)
from .snapshot import (
    MappedSnapshot,
    SnapshotCorruption,
    SnapshotError,
    SnapshotInfo,
    Snapshotter,
    load_snapshot,
    read_snapshot_info,
)
from .store import (
    PersistenceError,
    PersistentStore,
    RestoreResult,
    restore,
    snapshots_path,
    wal_path,
)
from .wal import (
    FSYNC_POLICIES,
    WalCorruption,
    WalError,
    WalFrame,
    WalScan,
    WriteAheadLog,
    scan_wal,
)

__all__ = [
    "FSYNC_POLICIES",
    "MappedSnapshot",
    "PersistenceError",
    "PersistentStore",
    "RestoreResult",
    "SnapshotCorruption",
    "SnapshotError",
    "SnapshotInfo",
    "Snapshotter",
    "WalCorruption",
    "WalError",
    "WalFrame",
    "WalScan",
    "WriteAheadLog",
    "decode_record",
    "decode_trajectory",
    "encode_record",
    "encode_trajectory",
    "load_snapshot",
    "read_snapshot_info",
    "restore",
    "scan_wal",
    "snapshots_path",
    "wal_path",
]
