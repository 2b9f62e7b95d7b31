"""``changes_since`` is a bisection on revision, equal to the changelog scan.

Every refresh asks the store for its changes two or three times (the
engine, the column store, the index), so the lookup is a ``bisect_right``
on the revision-ordered changelog instead of a rebuild of the whole
retained list.  Restored changelogs are revision-ordered but need not be
contiguous, which is why the offset is searched for, never computed.
"""

from __future__ import annotations

from repro.trajectories.mod import ChangeRecord, MovingObjectsDatabase
from repro.trajectories.trajectory import UncertainTrajectory


def scanned(mod, revision):
    """The changelog scan ``changes_since`` replaced."""
    if revision == mod.revision:
        return []
    if revision > mod.revision or revision < 0:
        return None
    log = mod.changelog_records()
    if not log or log[0].revision > revision + 1:
        return None
    return [record for record in log if record.revision > revision]


def line(object_id, offset=0.0):
    return UncertainTrajectory(object_id, [(offset, 0.0, 0.0), (offset + 1.0, 1.0, 10.0)], 0.5)


def assert_scan_equal(mod):
    for revision in range(-3, mod.revision + 4):
        assert mod.changes_since(revision) == scanned(mod, revision), revision


def test_trimmed_changelog():
    mod = MovingObjectsDatabase([line("a"), line("b")])
    for step in range(4200):
        mod.replace_trajectory(line("a", offset=float(step % 7)))
    assert mod.changelog_records()[0].revision > 1  # trimmed to capacity
    assert_scan_equal(mod)


def test_restored_changelog_with_gaps():
    records = [
        ChangeRecord(3, "add", "a"),
        ChangeRecord(5, "replace", "a", 4.0),
        ChangeRecord(9, "add", "b"),
    ]
    mod = MovingObjectsDatabase.restore_state(
        [line("a"), line("b")], 10, {"a": 5, "b": 9}, records
    )
    assert_scan_equal(mod)
    assert mod.changes_since(4) == records[1:]
    assert mod.changes_since(1) is None  # the log starts past revision 2


def test_foreign_and_current_revisions():
    mod = MovingObjectsDatabase([line("a")])
    mod.add(line("b"))
    mod.remove("a")
    assert_scan_equal(mod)
    assert mod.changes_since(mod.revision) == []
    assert mod.changes_since(mod.revision + 1) is None
    assert mod.changes_since(-1) is None
    assert MovingObjectsDatabase().changes_since(0) == []


def test_divergences_fold_the_same_records():
    mod = MovingObjectsDatabase([line("a"), line("b")])
    start = mod.revision
    extended = UncertainTrajectory(
        "a", list(mod.get("a").samples) + [(3.0, 3.0, 20.0)], 0.5, mod.get("a").pdf
    )
    mod.replace_trajectory(extended)
    mod.remove("b")
    mod.add(line("c"))
    assert mod.divergences_since(start) == {"a": 10.0, "b": None, "c": None}
    assert mod.divergences_since(-1) is None
