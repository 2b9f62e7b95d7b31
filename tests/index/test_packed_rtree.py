"""The array-packed STR R-tree against brute force, bulk loads and a scalar oracle.

Three contracts pin :class:`repro.index.rtree.STRRTree`:

* a probe's answer is a function of the live entry set alone, so
  ``query_box``/``query_corridor`` equal a brute-force scan of the entry
  arrays the tree was loaded from;
* any sequence of store changes applied with ``patch`` — through
  tombstones, the overflow block and repacks — leaves a tree that holds the
  entries, and gives the answers, of a tree bulk-loaded from the final
  store;
* ``leaf_entries()`` lists a bulk-loaded tree in the order of the
  object-per-box STR tree it replaced, restated here as a scalar oracle
  (``oracle_leaves``) the way ``tests/trajectories/linear_scan.py`` keeps
  the linear leg lookup.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import assume, given, strategies as st

from repro.index.boxes import Box3D, IndexEntry, segment_boxes
from repro.index.rtree import _OVERFLOW_SHARE, STRRTree
from repro.trajectories.columnar import SegmentBoxArrays, segment_boxes_bulk
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import UncertainTrajectory
from repro.workloads.scenarios import multi_query_fleet

from ..property.test_envelope_differential import (
    coordinate,
    fleets,
    multi_segment_fleets,
)

any_fleet = st.one_of(fleets(), multi_segment_fleets())
capacities = st.sampled_from([2, 3, 16])
extents = st.sampled_from([None, 4.0, 11.0])
times = st.floats(min_value=-6.0, max_value=16.0, allow_nan=False)
distances = st.sampled_from([0.0, 0.5, 3.0, 12.0, 80.0])


@st.composite
def probe_boxes(draw):
    x = sorted((draw(coordinate), draw(coordinate)))
    y = sorted((draw(coordinate), draw(coordinate)))
    t = sorted((draw(times), draw(times)))
    return Box3D(x[0], y[0], t[0], x[1], y[1], t[1])


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------


def scan(boxes: SegmentBoxArrays, probes) -> set:
    """Brute force: owners of the rows intersecting any of the probe boxes."""
    found = set()
    for probe in probes:
        hit = (
            (boxes.x_min <= probe.x_max)
            & (probe.x_min <= boxes.x_max)
            & (boxes.y_min <= probe.y_max)
            & (probe.y_min <= boxes.y_max)
            & (boxes.t_min <= probe.t_max)
            & (probe.t_min <= boxes.t_max)
        )
        found.update(boxes.ids[slot] for slot in boxes.owner_slots[hit].tolist())
    return found


def corridor_probes(trajectory, distance, t_lo, t_hi, max_box_extent):
    """The probe boxes ``query_corridor`` is documented to use."""
    clipped = trajectory.clipped(
        max(t_lo, trajectory.start_time), min(t_hi, trajectory.end_time)
    )
    extent = None if max_box_extent is None else max(max_box_extent, distance)
    return [
        entry.box.expanded(distance)
        for entry in segment_boxes(clipped, spatial_margin=0.0, max_extent=extent)
    ]


def oracle_leaves(entries, capacity):
    """Scalar STR: the leaves, left to right, of the object-per-box tree."""

    def pack(items):  # items: (box, payload) pairs -> nodes: (box, items)
        strips = max(1, math.ceil(math.sqrt(math.ceil(len(items) / capacity))))
        per_strip = math.ceil(len(items) / strips)
        by_x = sorted(items, key=lambda item: item[0].center[0])
        nodes = []
        for start in range(0, len(items), per_strip):
            strip = sorted(by_x[start:start + per_strip], key=lambda item: item[0].center[1])
            for cut in range(0, len(strip), capacity):
                chunk = strip[cut:cut + capacity]
                box = chunk[0][0]
                for other, _ in chunk[1:]:
                    box = box.union(other)
                nodes.append((box, chunk))
        return nodes

    levels = [pack([(entry.box, entry) for entry in entries])]
    while len(levels[-1]) > 1:
        levels.append(pack(levels[-1]))
    nodes = levels[-1]
    for _ in levels[1:]:
        nodes = [child for _, children in nodes for child in children]
    return [[entry for _, entry in chunk] for _, chunk in nodes], len(levels)


def live_entries(tree):
    """The tree's live entries as a sorted multiset of plain tuples."""
    return sorted(
        (
            (str(entry.object_id), entry.box.x_min, entry.box.y_min, entry.box.t_min,
             entry.box.x_max, entry.box.y_max, entry.box.t_max)
            for leaf in tree.leaf_entries()
            for entry in leaf
        )
    )


# ---------------------------------------------------------------------------
# Probes equal a brute-force scan of the entry arrays.
# ---------------------------------------------------------------------------


class TestProbesEqualBruteForce:
    @given(mod=any_fleet, capacity=capacities, extent=extents,
           probes=st.lists(probe_boxes(), min_size=1, max_size=6))
    def test_query_box(self, mod, capacity, extent, probes):
        tree = mod.build_index("rtree", leaf_capacity=capacity, max_box_extent=extent)
        boxes = segment_boxes_bulk(mod.columnar().pack(), max_extent=extent)
        assert len(tree) == len(boxes)
        for probe in probes:
            assert tree.query_box(probe) == scan(boxes, [probe])

    @given(mod=any_fleet, capacity=capacities, extent=extents, distance=distances,
           window=st.tuples(times, times), query=st.integers(min_value=0, max_value=2))
    def test_query_corridor(self, mod, capacity, extent, distance, window, query):
        trajectory = mod.get(f"o{query}")
        t_lo = max(min(window), trajectory.start_time)
        t_hi = min(max(window), trajectory.end_time)
        assume(t_hi - t_lo > 1e-3)  # ``clipped`` rejects an empty window
        tree = mod.build_index("rtree", leaf_capacity=capacity, max_box_extent=extent)
        boxes = segment_boxes_bulk(mod.columnar().pack(), max_extent=extent)
        expected = scan(boxes, corridor_probes(trajectory, distance, t_lo, t_hi, extent))
        expected.discard(trajectory.object_id)
        assert tree.query_corridor(trajectory, distance, t_lo, t_hi) == expected

    def test_arrays_and_entry_objects_load_the_same_tree(self):
        mod, _ = multi_query_fleet(num_vehicles=30, num_queries=2)
        boxes = segment_boxes_bulk(mod.columnar().pack(), max_extent=9.0)
        from_arrays = STRRTree(boxes, leaf_capacity=4, max_box_extent=9.0)
        from_objects = STRRTree(boxes.entries(), leaf_capacity=4, max_box_extent=9.0)
        assert from_arrays.leaf_entries() == from_objects.leaf_entries()
        assert from_arrays.height == from_objects.height


# ---------------------------------------------------------------------------
# Leaf order: the scalar STR oracle.
# ---------------------------------------------------------------------------


class TestLeafOrder:
    @given(mod=any_fleet, capacity=capacities, extent=extents)
    def test_leaf_entries_equal_the_scalar_str_oracle(self, mod, capacity, extent):
        tree = mod.build_index("rtree", leaf_capacity=capacity, max_box_extent=extent)
        entries = segment_boxes_bulk(mod.columnar().pack(), max_extent=extent).entries()
        leaves, height = oracle_leaves(entries, capacity)
        assert tree.leaf_entries() == leaves
        assert tree.height == height

    def test_city_fleet_matches_the_oracle(self):
        mod, _ = multi_query_fleet(num_vehicles=120, num_queries=4)
        tree = mod.build_index("rtree")
        x_min, y_min, x_max, y_max = mod.columnar().pack().spatial_bounds()
        extent = max(x_max - x_min, y_max - y_min) / 32.0  # build_index's "auto"
        entries = segment_boxes_bulk(mod.columnar().pack(), max_extent=extent).entries()
        leaves, height = oracle_leaves(entries, 16)
        assert tree.leaf_entries() == leaves
        assert tree.height == height >= 3

    def test_ties_keep_insertion_order(self):
        # Identical centres everywhere: only sort stability decides the order.
        entries = [IndexEntry(Box3D(0, 0, i, 2, 2, i + 1), i) for i in range(23)]
        tree = STRRTree(entries, leaf_capacity=3)
        assert tree.leaf_entries() == oracle_leaves(entries, 3)[0]


# ---------------------------------------------------------------------------
# Mutation sequences equal a bulk load of the final store.
# ---------------------------------------------------------------------------


def moved(trajectory, shift):
    """The same object on a shifted path (a full replacement)."""
    return UncertainTrajectory(
        trajectory.object_id,
        [(s.x + shift, s.y - shift, s.t) for s in trajectory.samples],
        trajectory.radius,
        trajectory.pdf,
    )


def extended(trajectory, minutes):
    """The same object with one more report (diverges at its old end time)."""
    last = trajectory.samples[-1]
    return UncertainTrajectory(
        trajectory.object_id,
        [(s.x, s.y, s.t) for s in trajectory.samples]
        + [(last.x + 1.5, last.y - 0.5, last.t + minutes)],
        trajectory.radius,
        trajectory.pdf,
    )


def assert_equals_bulk_load(tree, mod, capacity, extent):
    bulk = mod.build_index("rtree", leaf_capacity=capacity, max_box_extent=extent)
    assert len(tree) == len(bulk)
    assert live_entries(tree) == live_entries(bulk)
    whole = Box3D(-1e9, -1e9, -1e9, 1e9, 1e9, 1e9)
    assert tree.query_box(whole) == bulk.query_box(whole) == set(mod.object_ids)
    for trajectory in mod:
        for distance in (0.0, 2.0, 15.0):
            args = (trajectory, distance, trajectory.start_time, trajectory.end_time)
            assert tree.query_corridor(*args) == bulk.query_corridor(*args)


def sync(tree, mod, revision):
    """Patch ``tree`` with the store's changes since ``revision``."""
    tree.patch(mod.divergences_since(revision), mod.columnar())
    return mod.revision


operations = st.lists(
    st.tuples(
        st.sampled_from(["remove", "replace", "extend", "extend_whole", "reinsert"]),
        st.integers(min_value=0, max_value=5),
        st.sampled_from([0.75, 2.0, 6.5]),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


class TestMutationsEqualBulkLoad:
    @given(mod=any_fleet, capacity=capacities, extent=extents, ops=operations)
    def test_any_patch_sequence(self, mod, capacity, extent, ops):
        tree = mod.build_index("rtree", leaf_capacity=capacity, max_box_extent=extent)
        originals = {trajectory.object_id: trajectory for trajectory in mod}
        ids = list(originals)
        revision = mod.revision
        for kind, pick, amount, patch_now in ops:
            object_id = ids[pick % len(ids)]
            current = mod.get(object_id) if object_id in mod else None
            if current is None:
                mod.add(originals[object_id])
            elif kind == "remove":
                mod.remove(object_id)
            elif kind == "reinsert":
                mod.remove(object_id)
                mod.add(originals[object_id])
            elif kind == "extend":
                # Diverges at the old end time: history boxes stay put.
                mod.replace_trajectory(extended(current, amount))
                assert mod.divergences_since(mod.revision - 1) == {
                    object_id: current.end_time
                }
            elif kind == "extend_whole":
                mod.remove(object_id)
                mod.add(extended(current, amount))
            else:
                mod.replace_trajectory(moved(current, amount))
            if patch_now:
                revision = sync(tree, mod, revision)
        sync(tree, mod, revision)
        assert_equals_bulk_load(tree, mod, capacity, extent)

    def test_small_patch_stays_in_the_overflow_block(self):
        mod, _ = multi_query_fleet(num_vehicles=60, num_queries=2)
        tree = mod.build_index("rtree", max_box_extent=9.0)
        revision = mod.revision
        target = next(iter(mod))
        mod.replace_trajectory(moved(target, 3.0))
        sync(tree, mod, revision)
        overflow = tree.leaf_entries()[-1]
        assert len(overflow) == len(segment_boxes(target, max_extent=9.0))
        assert {entry.object_id for entry in overflow} == {target.object_id}
        assert len(overflow) <= len(tree) // _OVERFLOW_SHARE
        assert tree.repacks == 0, "a one-object patch must not repack"
        assert_equals_bulk_load(tree, mod, 16, 9.0)

    def test_overflow_beyond_its_share_repacks(self):
        mod, _ = multi_query_fleet(num_vehicles=60, num_queries=2)
        tree = mod.build_index("rtree", max_box_extent=9.0)
        height, revision = tree.height, mod.revision
        for round_, object_id in enumerate(list(mod.object_ids) * 2):
            mod.replace_trajectory(moved(mod.get(object_id), 1.0 + round_))
            revision = sync(tree, mod, revision)
        assert tree.repacks >= 2
        assert tree.height == height, "a repack restores the bulk-load shape"
        assert_equals_bulk_load(tree, mod, 16, 9.0)

    def test_divergence_times_use_the_shared_time_tolerance(self):
        # A box starting within TIME_TOLERANCE before a divergence time
        # still counts as "at or after" it, on both the retire and the
        # append side.  Eight one-box bystanders give the overflow block
        # room for a row, so no repack hides what the patch did.
        trajectory = UncertainTrajectory("a", [(0, 0, 0.0), (1, 1, 5.0), (2, 2, 9.0)], 0.2)
        bystanders = [
            UncertainTrajectory(f"b{k}", [(k, 9, 0.0), (k, 9, 9.0)], 0.2) for k in range(8)
        ]
        mod = MovingObjectsDatabase([trajectory, *bystanders])
        tree = mod.build_index("rtree", max_box_extent=None)
        tree.patch({"a": 5.0 + 5e-10}, mod.columnar())
        assert len(tree) == 10 and tree.repacks == 0
        assert [(e.object_id, e.box.t_min) for e in tree.leaf_entries()[-1]] == [("a", 5.0)]
        tree.patch({"a": 5.0 + 5e-9}, mod.columnar())
        assert len(tree) == 10
        assert [(e.object_id, e.box.t_min) for e in tree.leaf_entries()[-1]] == [("a", 5.0)]
        assert_equals_bulk_load(tree, mod, 16, None)

    def test_new_ids_and_emptying(self):
        mod = MovingObjectsDatabase()
        tree = STRRTree([], leaf_capacity=4)
        assert tree.height == 0 and tree.leaf_entries() == []
        a = UncertainTrajectory("a", [(0, 0, 0.0), (4, 0, 4.0), (4, 4, 8.0)], 0.5)
        b = UncertainTrajectory("b", [(9, 9, 0.0), (5, 9, 8.0)], 0.5)
        revision = mod.revision
        mod.add_all([a, b])
        revision = sync(tree, mod, revision)
        assert len(tree) == 3
        assert tree.query_corridor(a, 20.0, 0.0, 8.0) == {"b"}
        mod.remove("a")
        revision = sync(tree, mod, revision)
        assert len(tree) == 1
        mod.remove("b")
        revision = sync(tree, mod, revision)
        assert len(tree) == 0 and tree.height == 0
        assert tree.query_box(Box3D(-50, -50, -50, 50, 50, 50)) == set()
        mod.add(UncertainTrajectory("c", [(0, 0, 0.0), (1, 1, 1.0)], 0.1))
        sync(tree, mod, revision)
        assert tree.query_box(Box3D(0.5, 0.5, 0.5, 2, 2, 2)) == {"c"}


def test_probe_arrays_are_not_aliased_to_the_callers():
    # Loading from arrays must copy: the tree outlives the pack's box arrays.
    mod, _ = multi_query_fleet(num_vehicles=12, num_queries=2)
    boxes = segment_boxes_bulk(mod.columnar().pack())
    tree = STRRTree(boxes)
    before = live_entries(tree)
    boxes.x_min[:] = np.inf
    assert live_entries(tree) == before


def test_taking_the_probes_in_several_passes_changes_no_answer(monkeypatch):
    from repro.index import rtree

    mod, query_ids = multi_query_fleet(num_vehicles=60, num_queries=4)
    tree = mod.build_index("rtree")
    lo, hi = mod.common_time_span()
    queries = [(mod.get(query_id), 6.0, lo, hi) for query_id in query_ids]
    expected = [tree.query_corridor(*query) for query in queries]
    assert any(expected)
    monkeypatch.setattr(rtree, "_PAIR_BUDGET", 5)  # one probe box a pass
    assert [tree.query_corridor(*query) for query in queries] == expected
