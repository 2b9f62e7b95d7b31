"""Write-ahead log tests: framing, torn tails, repair, truncation."""

import logging
import os

import pytest

from repro.persistence.wal import (
    FSYNC_POLICIES,
    WAL_MAGIC,
    WalCorruption,
    WalError,
    WriteAheadLog,
    scan_wal,
)
from repro.trajectories.mod import ChangeRecord, MovingObjectsDatabase
from repro.trajectories.trajectory import UncertainTrajectory


def make_trajectory(object_id, offset=0.0, radius=0.5):
    return UncertainTrajectory(
        object_id,
        [(offset, 0.0, 0.0), (offset + 10.0, 5.0, 10.0)],
        radius,
    )


def assert_frames_equal(left, right):
    """Frame-list equality by value (trajectories compare by identity)."""
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.record == b.record
        if a.trajectory is None or b.trajectory is None:
            assert a.trajectory is None and b.trajectory is None
        else:
            assert [(s.x, s.y, s.t) for s in a.trajectory.samples] == [
                (s.x, s.y, s.t) for s in b.trajectory.samples
            ]
            assert a.trajectory.radius == b.trajectory.radius


def append_mutations(wal, count=3):
    """Append add/replace/remove frames for ``count`` objects via a MOD."""
    mod = MovingObjectsDatabase()
    mod.subscribe_changes(wal.append_many)
    for i in range(count):
        mod.add(make_trajectory(f"obj-{i}", offset=float(i)))
    mod.replace_trajectory(make_trajectory("obj-0", offset=100.0))
    mod.remove("obj-1")
    return mod


class TestFraming:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            mod = append_mutations(wal)
        scan = scan_wal(path)
        assert scan.dropped_bytes == 0
        assert [f.record for f in scan.frames] == mod.changelog_records()
        assert scan.last_revision == mod.revision
        # Payload trajectories round-trip exactly.
        replaced = next(f for f in scan.frames if f.record.kind == "replace")
        original = mod.get("obj-0")
        assert [(s.x, s.y, s.t) for s in replaced.trajectory.samples] == [
            (s.x, s.y, s.t) for s in original.samples
        ]
        removed = next(f for f in scan.frames if f.record.kind == "remove")
        assert removed.trajectory is None

    def test_empty_log_scans_empty(self, tmp_path):
        path = tmp_path / "log.wal"
        WriteAheadLog(path).close()
        scan = scan_wal(path)
        assert scan.frames == () and scan.last_revision == 0

    def test_missing_file_scans_empty(self, tmp_path):
        scan = scan_wal(tmp_path / "absent.wal")
        assert scan.frames == () and scan.valid_bytes == 0

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "not-a.wal"
        path.write_bytes(b"NOTAWAL!" + b"\x00" * 16)
        with pytest.raises(WalCorruption, match="bad magic"):
            scan_wal(path)

    def test_revision_order_enforced_on_append(self, tmp_path):
        with WriteAheadLog(tmp_path / "log.wal") as wal:
            wal.append(ChangeRecord(1, "add", "a"), make_trajectory("a"))
            with pytest.raises(ValueError, match="does not extend"):
                wal.append(ChangeRecord(1, "add", "b"), make_trajectory("b"))

    def test_closed_log_rejects_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "log.wal")
        wal.close()
        assert wal.closed
        with pytest.raises(WalError, match="closed"):
            wal.append(ChangeRecord(1, "add", "a"), make_trajectory("a"))

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync policy"):
            WriteAheadLog(tmp_path / "log.wal", fsync="sometimes")

    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_every_policy_round_trips(self, tmp_path, policy):
        path = tmp_path / f"{policy}.wal"
        with WriteAheadLog(path, fsync=policy) as wal:
            mod = append_mutations(wal)
            wal.flush()
        assert scan_wal(path).last_revision == mod.revision


class TestTornTail:
    def _clean_log(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            append_mutations(wal)
        return path, scan_wal(path)

    def test_truncated_mid_frame_drops_only_the_tail(self, tmp_path):
        path, clean = self._clean_log(tmp_path)
        # Cut the file a few bytes into the final frame.
        torn_at = clean.valid_bytes - 5
        data = path.read_bytes()
        path.write_bytes(data[:torn_at])
        scan = scan_wal(path)
        assert_frames_equal(scan.frames, clean.frames[:-1])
        assert scan.dropped_bytes > 0

    def test_corrupted_final_payload_drops_only_the_tail(self, tmp_path):
        path, clean = self._clean_log(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip one bit in the last payload byte
        path.write_bytes(bytes(data))
        scan = scan_wal(path)
        assert_frames_equal(scan.frames, clean.frames[:-1])
        assert scan.dropped_bytes > 0

    def test_garbage_suffix_is_dropped(self, tmp_path):
        path, clean = self._clean_log(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef-garbage")
        scan = scan_wal(path)
        assert_frames_equal(scan.frames, clean.frames)
        assert scan.dropped_bytes == 12

    def test_strict_scan_raises_on_torn_tail(self, tmp_path):
        path, _ = self._clean_log(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"torn")
        with pytest.raises(WalCorruption, match="tail"):
            scan_wal(path, strict=True)
        scan_wal(path)  # tolerant mode still succeeds

    def test_mid_file_corruption_hides_later_frames(self, tmp_path):
        # Damage in the *middle* invalidates everything after it — the
        # scanner must not resynchronize onto garbage.
        path, clean = self._clean_log(tmp_path)
        first_end = len(WAL_MAGIC) + 4  # header size
        data = bytearray(path.read_bytes())
        data[first_end + 20] ^= 0xFF
        path.write_bytes(bytes(data))
        scan = scan_wal(path)
        assert len(scan.frames) == 0
        assert scan.dropped_bytes == len(data) - first_end

    def test_reopen_repairs_torn_tail_and_appends_cleanly(self, tmp_path):
        path, clean = self._clean_log(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"\x01\x02torn-tail")
        wal = WriteAheadLog(path)  # repair happens on open
        assert os.path.getsize(path) == clean.valid_bytes
        assert wal.last_revision == clean.last_revision
        record = ChangeRecord(clean.last_revision + 1, "add", "fresh")
        wal.append(record, make_trajectory("fresh"))
        wal.close()
        scan = scan_wal(path)
        assert scan.dropped_bytes == 0
        assert scan.frames[-1].record == record


class TestTruncation:
    def test_truncate_through_drops_old_frames(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            mod = append_mutations(wal)
            cut = mod.revision - 2
            dropped = wal.truncate_through(cut)
            assert dropped == cut
            assert wal.frame_count == 2
            # The log keeps accepting appends after the rewrite.
            mod.add(make_trajectory("late", offset=50.0))
        scan = scan_wal(path)
        assert [f.record.revision for f in scan.frames] == [
            mod.revision - 2,
            mod.revision - 1,
            mod.revision,
        ]

    def test_truncate_everything_leaves_valid_empty_log(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            mod = append_mutations(wal)
            wal.truncate_through(mod.revision)
            assert wal.frame_count == 0
        assert scan_wal(path).frames == ()

    def test_truncate_noop_when_nothing_qualifies(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            append_mutations(wal)
            assert wal.truncate_through(0) == 0


class TestCreationRepair:
    """A crash during initial creation must not leave a headerless log."""

    def test_zero_byte_file_gets_a_header_on_reopen(self, tmp_path):
        path = tmp_path / "log.wal"
        path.write_bytes(b"")  # creation crashed before the header landed
        with WriteAheadLog(path) as wal:
            wal.append(ChangeRecord(1, "add", "a"), make_trajectory("a"))
        assert path.read_bytes()[: len(WAL_MAGIC)] == WAL_MAGIC
        scan = scan_wal(path)
        assert scan.dropped_bytes == 0
        assert scan.last_revision == 1

    def test_partial_header_is_rewritten_on_reopen(self, tmp_path):
        path = tmp_path / "log.wal"
        path.write_bytes(WAL_MAGIC[:5])  # creation crashed mid-header
        with WriteAheadLog(path) as wal:
            wal.append(ChangeRecord(1, "add", "a"), make_trajectory("a"))
            wal.append(ChangeRecord(2, "remove", "a"))
        scan = scan_wal(path)
        assert scan.dropped_bytes == 0
        assert [f.record.revision for f in scan.frames] == [1, 2]


class _EvilPayload:
    """Pickles to a REDUCE of ``os.mkdir(marker)`` — running it on load
    would create the marker directory."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        return (os.mkdir, (self.marker,))


class TestTrustBoundary:
    def test_global_bearing_payload_is_rejected_not_executed(self, tmp_path):
        import pickle
        import struct
        import zlib

        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            append_mutations(wal)
        clean = scan_wal(path)
        marker = str(tmp_path / "pwned")
        payload = pickle.dumps(
            {
                "record": (clean.last_revision + 1, "add", "evil", None),
                "boom": _EvilPayload(marker),
            }
        )
        with open(path, "ab") as handle:
            handle.write(struct.pack("<II", len(payload), zlib.crc32(payload)))
            handle.write(payload)
        scan = scan_wal(path)  # valid CRC, but the payload is not plain data
        assert not os.path.exists(marker)
        assert_frames_equal(scan.frames, clean.frames)
        assert scan.dropped_bytes > 0
        with pytest.raises(WalCorruption, match="decode failure"):
            scan_wal(path, strict=True)

    def test_undecodable_frame_is_an_error_and_a_torn_tail_is_not(self, tmp_path):
        import pickle
        import struct
        import zlib

        records = []
        handler = logging.Handler()
        handler.emit = records.append
        logger = logging.getLogger("repro.persistence.wal")
        logger.addHandler(handler)
        try:
            path = tmp_path / "log.wal"
            with WriteAheadLog(path) as wal:
                append_mutations(wal)
            with open(path, "ab") as handle:
                handle.write(b"\x07\x00")  # a torn frame header
            scan_wal(path)
            assert [r.levelno for r in records] == [logging.WARNING]

            records.clear()
            with WriteAheadLog(path):  # repairs the torn tail
                pass
            records.clear()
            payload = pickle.dumps({"record": "not a record tuple"})
            with open(path, "ab") as handle:
                handle.write(struct.pack("<II", len(payload), zlib.crc32(payload)))
                handle.write(payload)
            scan_wal(path)
            assert logging.ERROR in [r.levelno for r in records]
            assert "passed its checksum" in records[0].getMessage()
        finally:
            logger.removeHandler(handler)
