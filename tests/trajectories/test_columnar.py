"""Tests for the columnar store: packing, changelog sync, restored columns, bulk boxes.

The oracles here read ``.samples`` and rebuild every trajectory from them,
so no comparison reads the columns the store under test caches on the
trajectories.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.trajectories.mod as mod_module
from repro.persistence import Snapshotter, load_snapshot
from repro.reference.boxes import segment_boxes
from repro.reference.corridor import TrajectoryArrays
from repro.trajectories.columnar import ColumnarPack, ColumnarStore, segment_boxes_bulk
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import UncertainTrajectory

from ..conftest import box_entries


def make_trajectory(object_id, points, radius=0.5):
    return UncertainTrajectory(object_id, points, radius)


@pytest.fixture
def mod():
    return MovingObjectsDatabase(
        [
            make_trajectory("a", [(0.0, 0.0, 0.0), (10.0, 0.0, 10.0)]),
            make_trajectory("b", [(5.0, 5.0, 0.0), (5.0, -5.0, 10.0)], radius=0.5),
            make_trajectory("c", [(1.0, 2.0, 0.0), (3.0, 4.0, 5.0), (9.0, 9.0, 10.0)]),
        ]
    )


def pack_from_samples(mod):
    """The pack of ``mod`` read straight from every trajectory's ``.samples``."""
    trajectories = list(mod)
    lengths = np.array([len(t.samples) for t in trajectories], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths

    def column(field):
        return np.array([getattr(s, field) for t in trajectories for s in t.samples], dtype=float)

    radii = np.array([t.radius for t in trajectories], dtype=float)
    ids = tuple(t.object_id for t in trajectories)
    return ColumnarPack(ids, starts, lengths, column("t"), column("x"), column("y"), radii)


def rebuilt_from_samples(mod):
    """A MOD of new trajectories over ``mod``'s samples: no column is shared."""
    return MovingObjectsDatabase(
        UncertainTrajectory(t.object_id, list(t.samples), t.radius, t.pdf) for t in mod
    )


def assert_packs_equal(left, right):
    assert left.ids == right.ids
    assert np.array_equal(left.starts, right.starts)
    assert np.array_equal(left.lengths, right.lengths)
    assert np.array_equal(left.ts, right.ts)
    assert np.array_equal(left.xs, right.xs)
    assert np.array_equal(left.ys, right.ys)
    assert np.array_equal(left.radii, right.radii)


class TestPacking:
    def test_pack_matches_sample_tuples(self, mod):
        pack = mod.columnar().pack()
        assert list(pack.ids) == mod.object_ids
        for slot, trajectory in enumerate(mod):
            start = pack.starts[slot]
            stop = start + pack.lengths[slot]
            assert np.array_equal(
                pack.ts[start:stop], [s.t for s in trajectory.samples]
            )
            assert np.array_equal(
                pack.xs[start:stop], [s.x for s in trajectory.samples]
            )
            assert np.array_equal(
                pack.ys[start:stop], [s.y for s in trajectory.samples]
            )
            assert pack.radii[slot] == trajectory.radius

    def test_pack_matches_scalar_flattening(self, mod):
        scalar = TrajectoryArrays().flat(mod)
        columnar = mod.columnar().pack()
        assert list(columnar.ids) == scalar[0]
        for left, right in zip(columnar[1:6], scalar[1:]):
            assert np.array_equal(left, right)

    def test_pack_cached_until_mutation(self, mod):
        store = mod.columnar()
        first = store.pack()
        assert store.pack() is first
        mod.remove("b")
        assert mod.columnar().pack() is not first

    def test_store_is_cached_on_the_mod(self, mod):
        assert mod.columnar() is mod.columnar()

    def test_slot_and_columns_access(self, mod):
        store = mod.columnar()
        assert store.slot_of("b") == 1
        ts, xs, ys = store.columns("c")
        assert ts.tolist() == [0.0, 5.0, 10.0]
        with pytest.raises(KeyError):
            store.columns("nope")

    def test_empty_store_packs_empty_arrays(self):
        store = MovingObjectsDatabase().columnar()
        pack = store.pack()
        assert pack.ids == ()
        assert pack.sample_count == 0
        with pytest.raises(ValueError):
            pack.spatial_bounds()


class TestChangelogSync:
    def test_replace_patches_only_changed_columns(self, mod):
        store = mod.columnar()
        before_b = store.columns("b")
        mod.replace_trajectory(
            make_trajectory("a", [(0.0, 0.0, 0.0), (0.0, 9.0, 10.0)])
        )
        store.sync()
        # Untouched objects keep their identical column arrays.
        assert store.columns("b")[0] is before_b[0]
        assert store.columns("a")[1].tolist() == [0.0, 0.0]
        assert store.columns("a")[2].tolist() == [0.0, 9.0]

    def test_sync_tracks_add_remove_order(self, mod):
        store = mod.columnar()
        mod.remove("a")
        mod.add(make_trajectory("d", [(0.0, 0.0, 0.0), (1.0, 1.0, 10.0)]))
        mod.upsert(make_trajectory("b", [(5.0, 5.0, 0.0), (6.0, 6.0, 10.0)]))
        store.sync()
        assert list(store.pack().ids) == mod.object_ids

    def test_changelog_overflow_falls_back_to_full_resync(self, mod, monkeypatch):
        monkeypatch.setattr(mod_module, "_CHANGELOG_CAPACITY", 2)
        store = mod.columnar()
        for step in range(6):
            mod.upsert(
                make_trajectory("a", [(0.0, 0.0, 0.0), (float(step), 1.0, 10.0)])
            )
            mod.upsert(
                make_trajectory(f"extra-{step}", [(0.0, 0.0, 0.0), (1.0, 1.0, 10.0)])
            )
        assert mod.changes_since(store.revision) is None
        store.sync()
        assert_packs_equal(store.pack(), pack_from_samples(mod))

    def test_foreign_revision_resyncs(self, mod):
        store = mod.columnar()
        assert store.sync() is False  # already current
        mod.add(make_trajectory("z", [(0.0, 0.0, 0.0), (1.0, 1.0, 10.0)]))
        assert store.sync() is True


class TestSeededViews:
    """A store restored from a snapshot packs the snapshot's mapped columns."""

    @staticmethod
    def restored(mod, tmp_path):
        snapshot = load_snapshot(Snapshotter(tmp_path).write(mod).path)
        return snapshot, snapshot.build_mod()

    def test_restored_columns_share_memory_with_the_snapshot_file(self, mod, tmp_path):
        snapshot, restored = self.restored(mod, tmp_path)
        store = restored.columnar()
        for object_id in mod.object_ids:
            for column, field in zip(store.columns(object_id), "txy"):
                assert np.shares_memory(column, snapshot._raw)
                assert column.tolist() == [getattr(s, field) for s in mod.get(object_id).samples]

    def test_a_replacement_gets_its_own_columns(self, mod, tmp_path):
        snapshot, restored = self.restored(mod, tmp_path)
        store = restored.columnar()
        assert np.shares_memory(store.columns("a")[0], snapshot._raw)
        restored.replace_trajectory(
            make_trajectory("a", [(0.0, 0.0, 0.0), (0.0, 1.0, 10.0)])
        )
        ts, xs, ys = restored.columnar().columns("a")
        assert not any(np.shares_memory(column, snapshot._raw) for column in (ts, xs, ys))
        assert np.array_equal(ys, [0.0, 1.0])
        assert np.shares_memory(restored.columnar().columns("b")[0], snapshot._raw)

    def test_an_extension_of_a_restored_trajectory_gets_its_own_columns(self, mod, tmp_path):
        snapshot, restored = self.restored(mod, tmp_path)
        store = restored.columnar()
        restored.replace_trajectory(restored.get("c").extended([(9.5, 9.5, 12.0)]))
        ts, xs, ys = store.columns("c")
        assert not any(np.shares_memory(column, snapshot._raw) for column in (ts, xs, ys))
        assert ts.tolist() == [0.0, 5.0, 10.0, 12.0]
        assert_packs_equal(store.pack(), pack_from_samples(restored))


class TestSegmentBoxesBulk:
    @pytest.mark.parametrize("max_extent", [None, 0.8, 3.0])
    def test_bulk_boxes_match_scalar_loop(self, mod, max_extent):
        pack = mod.columnar().pack()
        bulk = box_entries(segment_boxes_bulk(pack, max_extent=max_extent))
        scalar = []
        for trajectory in mod:
            scalar.extend(segment_boxes(trajectory, max_extent=max_extent))
        assert len(bulk) == len(scalar)
        for left, right in zip(bulk, scalar):
            assert left.object_id == right.object_id
            assert left.box == right.box

    def test_explicit_margin_matches_scalar(self, mod):
        pack = mod.columnar().pack()
        bulk = box_entries(segment_boxes_bulk(pack, spatial_margin=1.25))
        scalar = []
        for trajectory in mod:
            scalar.extend(segment_boxes(trajectory, spatial_margin=1.25))
        assert [entry.box for entry in bulk] == [entry.box for entry in scalar]

    def test_zero_duration_legs_are_skipped(self):
        mod = MovingObjectsDatabase(
            [
                make_trajectory(
                    "dup", [(0.0, 0.0, 0.0), (5.0, 0.0, 5.0), (5.0, 1.0, 5.0), (5.0, 5.0, 10.0)]
                )
            ]
        )
        pack = mod.columnar().pack()
        bulk = box_entries(segment_boxes_bulk(pack))
        scalar = segment_boxes(mod.get("dup"))
        assert [entry.box for entry in bulk] == [entry.box for entry in scalar]

    def test_all_zero_duration_raises_like_segments(self):
        mod = MovingObjectsDatabase(
            [make_trajectory("flat", [(0.0, 0.0, 1.0), (1.0, 1.0, 1.0)])]
        )
        with pytest.raises(ValueError, match="positive duration"):
            segment_boxes_bulk(mod.columnar().pack())

    def test_invalid_max_extent_rejected(self, mod):
        with pytest.raises(ValueError):
            segment_boxes_bulk(mod.columnar().pack(), max_extent=0.0)


# ----------------------------------------------------------------------
# Property: any changelog-driven patch sequence equals a from-scratch pack.
# ----------------------------------------------------------------------

_COORDS = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@st.composite
def _trajectory(draw, object_id):
    count = draw(st.integers(min_value=2, max_value=5))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
    )
    points = [(draw(_COORDS), draw(_COORDS), t) for t in times]
    return make_trajectory(object_id, points, radius=draw(st.sampled_from([0.5, 1.0])))


@st.composite
def _operations(draw):
    ids = [f"obj-{index}" for index in range(4)]
    count = draw(st.integers(min_value=1, max_value=12))
    operations = []
    for _ in range(count):
        kind = draw(st.sampled_from(["upsert", "remove", "replace"]))
        object_id = draw(st.sampled_from(ids))
        if kind == "remove":
            operations.append(("remove", object_id, None))
        else:
            operations.append((kind, object_id, draw(_trajectory(object_id))))
    return operations


@settings(max_examples=60, deadline=None)
@given(operations=_operations())
def test_patched_store_equals_from_scratch_pack(operations):
    mod = MovingObjectsDatabase(
        [
            make_trajectory("obj-0", [(0.0, 0.0, 0.0), (1.0, 1.0, 10.0)]),
            make_trajectory("obj-1", [(2.0, 2.0, 0.0), (3.0, 3.0, 10.0)]),
        ]
    )
    store = mod.columnar()
    for kind, object_id, trajectory in operations:
        if kind == "remove":
            if object_id in mod:
                mod.remove(object_id)
        elif kind == "replace":
            if object_id in mod:
                mod.replace_trajectory(trajectory)
        else:
            mod.upsert(trajectory)
        # Sync mid-sequence on every step: each patch must be exact, not
        # just the final state.
        store.sync()
        assert_packs_equal(store.pack(), pack_from_samples(mod))


# ----------------------------------------------------------------------
# Extensions append their tails.
# ----------------------------------------------------------------------


@st.composite
def _streams(draw):
    """Extend / replace / remove / re-add steps over three vehicles."""
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(st.sampled_from(["extend", "extend", "replace", "remove", "add"]))
        object_id = draw(st.sampled_from(["obj-0", "obj-1", "obj-2"]))
        tail = [
            (draw(_COORDS), draw(_COORDS), gap)
            for gap in draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=1, max_size=3))
        ]
        steps.append((kind, object_id, draw(_trajectory(object_id)), tail))
    return steps


@given(steps=_streams())
def test_extended_store_equals_a_fresh_store(steps):
    mod = MovingObjectsDatabase(
        make_trajectory(f"obj-{index}", [(0.0, 0.0, 0.0), (1.0, 1.0, 10.0)]) for index in range(3)
    )
    store = mod.columnar()
    for kind, object_id, trajectory, tail in steps:
        revision = mod.revision
        if kind == "extend" and object_id in mod:
            base = mod.get(object_id)
            times = base.samples[-1].t + np.cumsum([gap for _, _, gap in tail])
            mod.replace_trajectory(
                base.extended([(x, y, t) for (x, y, _), t in zip(tail, times.tolist())])
            )
        elif kind == "replace" and object_id in mod:
            mod.replace_trajectory(trajectory)
        elif kind == "remove" and object_id in mod:
            mod.remove(object_id)
        elif kind == "add" and object_id not in mod:
            mod.add(trajectory)
        changed = mod.divergences_since(revision)
        store.sync()
        fresh = ColumnarStore(rebuilt_from_samples(mod))
        assert_packs_equal(store.pack(), pack_from_samples(mod))
        for object_id in mod.object_ids:
            samples = mod.get(object_id).samples
            for mine, field in zip(store.columns(object_id), "txy"):
                theirs = np.array([getattr(s, field) for s in samples], dtype=float)
                assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
        mine, theirs = store.boxes_since(changed, 2.0), fresh.boxes_since(changed, 2.0)
        assert mine.ids == theirs.ids
        for field in ("owner_slots", "x_min", "y_min", "t_min", "x_max", "y_max", "t_max"):
            assert np.array_equal(getattr(mine, field), getattr(theirs, field))


def test_an_extension_batch_reads_only_the_tails(monkeypatch):
    import repro.trajectories.trajectory as trajectory_module

    mod = MovingObjectsDatabase(
        make_trajectory(f"obj-{index}", [(0.0, index, 0.0), (1.0, index, 10.0)]) for index in range(4)
    )
    store = mod.columnar()
    store.pack()
    reads = []
    original = trajectory_module._sample_columns
    monkeypatch.setattr(
        trajectory_module,
        "_sample_columns",
        lambda samples: reads.append(list(samples)) or original(samples),
    )
    # Two batches before one sync: the first batch's trajectories are gone
    # by then, and each object still reads only its two tails.
    tails = [[(2.0, 1.0, 11.0), (3.0, 1.0, 12.0)], [(4.0, 1.0, 13.0)]]
    for tail in tails:
        mod.upsert_many(mod.get(object_id).extended(tail) for object_id in mod.object_ids)
    store.sync()
    store.pack()
    assert [[(s.x, s.y, s.t) for s in read] for read in reads] == [tails[0] + tails[1]] * 4
    assert_packs_equal(store.pack(), pack_from_samples(mod))
