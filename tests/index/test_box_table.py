"""The segment box table and the store's batch filter against brute force.

Three contracts pin :class:`repro.index.table.SegmentBoxTable`:

* a scan's answer is a function of the live entry set alone, so every
  member of a ``probe`` batch — one box or a corridor's probe boxes, which
  are the reference loop's boxes of the clipped trajectory grown by the
  corridor width — equals a brute-force scan of the entry arrays the table
  was loaded from;
* after any sequence of store changes patched into the table (tombstones,
  appended rows, compactions), the store's batch filter
  ``candidates_within_corridor`` gives every query of a batch exactly the
  list a brute force over the reference ``segment_boxes`` of the final
  store gives it,
  in the filter order — duplicate ids, infinite radii and windows at the
  fleet's edges included;
* the patched table holds the entries, and gives the answers, of a table
  loaded from the final store.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from repro.experiments.grid import GridIndex
from repro.index.table import _SLACK_SHARE, SegmentBoxTable
from repro.reference.boxes import Box3D, segment_boxes
from repro.trajectories.columnar import SegmentBoxArrays, segment_boxes_bulk
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import UncertainTrajectory
from repro.workloads.random_waypoint import RandomWaypointConfig, generate_trajectories
from repro.workloads.scenarios import multi_query_fleet

from ..conftest import box_entries, probe_box, probe_corridor, straight_trajectory
from ..property.test_envelope_differential import (
    coordinate,
    fleets,
    multi_segment_fleets,
)

any_fleet = st.one_of(fleets(), multi_segment_fleets())
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
    """The probe boxes ``corridor_probes`` is documented to make."""
    clipped = trajectory.clipped(
        max(t_lo, trajectory.start_time), min(t_hi, trajectory.end_time)
    )
    extent = None if max_box_extent is None else max(max_box_extent, distance)
    return [
        entry.box.expanded(distance)
        for entry in segment_boxes(clipped, spatial_margin=0.0, max_extent=extent)
    ]


def as_arrays(probes):
    """Probe boxes as the ``(lo, hi)`` corner arrays ``probe`` takes."""
    lo = np.array([[p.x_min, p.y_min, p.t_min] for p in probes], dtype=float).reshape(-1, 3)
    hi = np.array([[p.x_max, p.y_max, p.t_max] for p in probes], dtype=float).reshape(-1, 3)
    return lo.T.copy(), hi.T.copy()


def filter_order(mod, ids):
    """``str`` first, then store insertion order: the filter's total order."""
    position = {object_id: k for k, object_id in enumerate(mod.object_ids)}
    return sorted(ids, key=lambda object_id: (str(object_id), position[object_id]))


def brute_candidates(mod, query_id, corridor, t_lo, t_hi, extent):
    """One query's filter list from ``segment_boxes`` of every stored object."""
    if math.isinf(corridor):
        found = set(mod.object_ids)
    else:
        probes = corridor_probes(mod.get(query_id), corridor, t_lo, t_hi, extent)
        found = {
            trajectory.object_id
            for trajectory in mod
            if any(
                entry.box.intersects(probe)
                for entry in segment_boxes(trajectory, max_extent=extent)
                for probe in probes
            )
        }
    return filter_order(mod, found - {query_id})


def live_entries(table):
    """The table's live entries as a sorted multiset of plain tuples."""
    return sorted(
        (str(entry.object_id), entry.box.x_min, entry.box.y_min, entry.box.t_min,
         entry.box.x_max, entry.box.y_max, entry.box.t_max)
        for entry in box_entries(table.boxes())
    )


# ---------------------------------------------------------------------------
# Scans equal a brute-force scan of the entry arrays.
# ---------------------------------------------------------------------------


class TestProbesEqualBruteForce:
    @given(mod=any_fleet, extent=extents,
           members=st.lists(st.lists(probe_boxes(), max_size=4), min_size=1, max_size=5))
    def test_every_member_of_a_batch(self, mod, extent, members):
        table = mod.build_index("rtree", max_box_extent=extent)
        boxes = segment_boxes_bulk(mod.columnar().pack(), max_extent=extent)
        assert len(table) == len(boxes)
        found = table.probe([as_arrays(probes) for probes in members])
        assert len(found) == len(members)
        for ids, probes in zip(found, members):
            assert len(ids) == len(set(ids))
            assert set(ids) == scan(boxes, probes)

    @given(mod=any_fleet, extent=extents,
           probes=st.lists(probe_boxes(), min_size=1, max_size=6))
    def test_query_box(self, mod, extent, probes):
        table = mod.build_index("rtree", max_box_extent=extent)
        boxes = segment_boxes_bulk(mod.columnar().pack(), max_extent=extent)
        for probe in probes:
            assert probe_box(table, probe) == scan(boxes, [probe])

    @given(mod=any_fleet, extent=extents, distance=distances,
           window=st.tuples(times, times), query=st.integers(min_value=0, max_value=2))
    def test_query_corridor(self, mod, extent, distance, window, query):
        trajectory = mod.get(f"o{query}")
        t_lo = max(min(window), trajectory.start_time)
        t_hi = min(max(window), trajectory.end_time)
        assume(t_hi - t_lo > 1e-3)  # ``clipped`` rejects an empty window
        table = mod.build_index("rtree", max_box_extent=extent)
        boxes = segment_boxes_bulk(mod.columnar().pack(), max_extent=extent)
        expected = scan(boxes, corridor_probes(trajectory, distance, t_lo, t_hi, extent))
        expected.discard(trajectory.object_id)
        assert probe_corridor(table, trajectory, distance, t_lo, t_hi) == expected

    def test_a_member_without_probe_boxes_owns_nothing(self):
        # ``logical_or.reduceat`` answers an empty run with a neighbouring
        # row: an empty member beside one with many boxes must stay empty.
        mod, query_ids = multi_query_fleet(num_vehicles=40, num_queries=2)
        table = mod.build_index("rtree")
        lo, hi = mod.common_time_span()
        many = table.corridor_probes(mod.get(query_ids[0]), 4.0, lo, hi)
        assert many[0].shape[1] > 1
        none = (np.empty((3, 0)), np.empty((3, 0)))
        found = table.probe([none, many, none, none, many, none])
        assert found[1] and found[4] == found[1]
        assert found[0] == found[2] == found[3] == found[5] == []
        assert table.probe([none]) == [[]]
        assert table.probe([]) == []

    def test_a_load_holds_the_arrays_rows(self):
        mod, _ = multi_query_fleet(num_vehicles=30, num_queries=2)
        boxes = segment_boxes_bulk(mod.columnar().pack(), max_extent=9.0)
        table = SegmentBoxTable(boxes, max_box_extent=9.0)
        assert box_entries(table.boxes()) == box_entries(boxes)

    def test_random_waypoint_boxes_against_the_entry_loop_and_the_grid(self):
        trajectories = generate_trajectories(
            RandomWaypointConfig(num_objects=80, segments_per_trajectory=2, seed=9)
        )
        table = MovingObjectsDatabase(trajectories).build_index(max_box_extent=None)
        assert len(table) == 80 * 2
        grid = GridIndex.covering(trajectories, cells=20)
        probes = [
            Box3D(0.0, 0.0, 0.0, 10.0, 10.0, 30.0),
            Box3D(15.0, 15.0, 10.0, 25.0, 25.0, 50.0),
            Box3D(35.0, 35.0, 0.0, 40.0, 40.0, 60.0),
        ]
        for probe in probes:
            expected = {
                trajectory.object_id
                for trajectory in trajectories
                if any(entry.box.intersects(probe) for entry in segment_boxes(trajectory))
            }
            assert probe_box(table, probe) == expected == grid.query_box(probe)

    def test_corridor_query(self):
        query = straight_trajectory("q", (0.0, 0.0), (30.0, 0.0))
        near = straight_trajectory("near", (0.0, 2.0), (30.0, 2.0))
        far = straight_trajectory("far", (0.0, 30.0), (30.0, 30.0))
        table = MovingObjectsDatabase([query, near, far]).build_index(max_box_extent=None)
        assert probe_corridor(table, query, 5.0, 0.0, 60.0) == {"near"}
        with pytest.raises(ValueError):
            table.corridor_probes(query, -0.5, 0.0, 60.0)

    def test_empty_table(self):
        table = MovingObjectsDatabase().build_index()
        assert len(table) == 0 and box_entries(table.boxes()) == []
        assert probe_box(table, Box3D(0, 0, 0, 1, 1, 1)) == set()


# ---------------------------------------------------------------------------
# Corridor probes are the reference loop's boxes, grown by the corridor.
# ---------------------------------------------------------------------------


class TestCorridorProbes:
    # Three legs of positive duration around a repeated timestamp (a jump
    # at t = 10), and a long diagonal leg that slices.
    query = UncertainTrajectory(
        "q", [(0, 0, 0.0), (30, 12, 10.0), (31, 13, 10.0), (5, 40, 20.0), (9, 41, 30.0)], 0.5
    )

    @pytest.mark.parametrize("extent", [None, 2.0, 9.0])
    @pytest.mark.parametrize("distance", [0.0, 1.5, 4.0])
    @pytest.mark.parametrize("window", [(0.0, 30.0), (3.3, 24.1), (10.0, 17.5), (-5.0, 40.0)])
    def test_equal_the_reference_boxes_grown_by_the_corridor(self, extent, distance, window):
        other = straight_trajectory("o", (0.0, 5.0), (40.0, 5.0), -5.0, 40.0)
        table = MovingObjectsDatabase([self.query, other]).build_index(max_box_extent=extent)
        lo, hi = table.corridor_probes(self.query, distance, *window)
        expected = corridor_probes(self.query, distance, *window, extent)
        assert lo.shape[1] == len(expected)
        expected_lo, expected_hi = as_arrays(expected)
        assert np.array_equal(lo, expected_lo) and np.array_equal(hi, expected_hi)

    def test_a_window_without_a_positive_leg_raises_as_the_reference_does(self):
        table = MovingObjectsDatabase([self.query]).build_index(max_box_extent=None)
        with pytest.raises(ValueError, match="positive duration"):
            corridor_probes(self.query, 1.0, 10.0, 10.0, None)
        with pytest.raises(ValueError, match="positive duration"):
            table.corridor_probes(self.query, 1.0, 10.0, 10.0)


# ---------------------------------------------------------------------------
# Store changes, patched in.
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


def sync(table, mod, revision):
    """Patch ``table`` with the store's changes since ``revision``."""
    table.patch(mod.divergences_since(revision), mod.columnar())
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


def mutate(table, mod, ops):
    """Apply ``ops`` to the store, patching ``table`` where an op says so."""
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
            assert mod.divergences_since(mod.revision - 1) == {object_id: current.end_time}
        elif kind == "extend_whole":
            mod.remove(object_id)
            mod.add(extended(current, amount))
        else:
            mod.replace_trajectory(moved(current, amount))
        if patch_now:
            revision = sync(table, mod, revision)
    sync(table, mod, revision)


def assert_equals_bulk_load(table, mod, extent):
    bulk = mod.build_index("rtree", max_box_extent=extent)
    assert len(table) == len(bulk)
    assert live_entries(table) == live_entries(bulk)
    whole = Box3D(-1e9, -1e9, -1e9, 1e9, 1e9, 1e9)
    assert probe_box(table, whole) == probe_box(bulk, whole) == set(mod.object_ids)
    for trajectory in mod:
        for distance in (0.0, 2.0, 15.0):
            args = (trajectory, distance, trajectory.start_time, trajectory.end_time)
            assert probe_corridor(table, *args) == probe_corridor(bulk, *args)


@st.composite
def filter_batches(draw):
    """Members (duplicates allowed) with corridors, infinite ones included."""
    return draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.sampled_from([0.0, 0.5, 3.0, 12.0, math.inf]),
            ),
            min_size=1,
            max_size=7,
        )
    )


class TestBatchFilterEqualsBruteForce:
    @given(mod=any_fleet, extent=extents, ops=operations, members=filter_batches(),
           edge=st.sampled_from(["start", "end", "whole", "inner"]))
    def test_after_any_patch_sequence(self, mod, extent, ops, members, edge):
        table = mod.build_index("rtree", max_box_extent=extent)
        mutate(table, mod, ops)
        ids = mod.object_ids
        start = min(trajectory.start_time for trajectory in mod)
        end = max(trajectory.end_time for trajectory in mod)
        t_lo, t_hi = {
            "start": (start, start + 1.0),
            "end": (end - 1.0, end),
            "whole": (start, end),
            "inner": (2.0, 7.5),
        }[edge]

        def covered(query_id):
            trajectory = mod.get(query_id)
            lo, hi = max(t_lo, trajectory.start_time), min(t_hi, trajectory.end_time)
            return hi - lo > 1e-3  # ``clipped`` rejects an empty window

        batch = [(ids[pick % len(ids)], corridor) for pick, corridor in members]
        batch = [(query_id, corridor) for query_id, corridor in batch if covered(query_id)]
        assume(batch)
        query_ids = [query_id for query_id, _ in batch]
        corridors = [corridor for _, corridor in batch]
        found = mod.candidates_within_corridor(query_ids, corridors, t_lo, t_hi, table)
        assert found == [
            brute_candidates(mod, query_id, corridor, t_lo, t_hi, extent)
            for query_id, corridor in batch
        ]
        # Each member's list is its one-member batch's list.
        for query_id, corridor, ids_found in zip(query_ids, corridors, found):
            assert mod.candidates_within_corridor(
                [query_id], [corridor], t_lo, t_hi, table
            ) == [ids_found]

    def test_the_order_does_not_depend_on_the_table_slots(self):
        # ``7`` and ``"7"`` share a ``str``: the store's insertion order
        # decides, whatever order the table met them in.
        path = [(0.0, 0.0, 0.0), (4.0, 0.0, 10.0)]
        mod = MovingObjectsDatabase([
            UncertainTrajectory("7", path, 0.2),
            UncertainTrajectory(7, path, 0.2),
            UncertainTrajectory("q", path, 0.2),
        ])
        table = mod.build_index("rtree")
        revision = mod.revision
        mod.remove("7")
        mod.add(UncertainTrajectory("7", path, 0.2))
        sync(table, mod, revision)
        assert mod.object_ids == [7, "q", "7"]
        for corridor in (1.0, math.inf):
            assert mod.candidates_within_corridor(["q"], [corridor], 0.0, 10.0, table) == [
                [7, "7"]
            ]


# ---------------------------------------------------------------------------
# Patch sequences equal a load of the final store.
# ---------------------------------------------------------------------------


class TestMutationsEqualBulkLoad:
    @given(mod=any_fleet, extent=extents, ops=operations)
    def test_any_patch_sequence(self, mod, extent, ops):
        table = mod.build_index("rtree", max_box_extent=extent)
        mutate(table, mod, ops)
        assert_equals_bulk_load(table, mod, extent)

    def test_small_patch_is_appended(self):
        mod, _ = multi_query_fleet(num_vehicles=60, num_queries=2)
        table = mod.build_index("rtree", max_box_extent=9.0)
        revision = mod.revision
        target = next(iter(mod))
        mod.replace_trajectory(moved(target, 3.0))
        sync(table, mod, revision)
        added = len(segment_boxes(target, max_extent=9.0))
        appended = box_entries(table.boxes())[-added:]
        assert {entry.object_id for entry in appended} == {target.object_id}
        assert table.compactions == 0, "a one-object patch must not compact"
        assert_equals_bulk_load(table, mod, 9.0)

    def test_appends_beyond_the_spare_block_compact(self):
        mod, _ = multi_query_fleet(num_vehicles=60, num_queries=2)
        table = mod.build_index("rtree", max_box_extent=9.0)
        revision = mod.revision
        for round_, object_id in enumerate(list(mod.object_ids) * 2):
            mod.replace_trajectory(moved(mod.get(object_id), 1.0 + round_))
            revision = sync(table, mod, revision)
        assert table.compactions >= 2
        assert_equals_bulk_load(table, mod, 9.0)

    def test_dead_rows_beyond_their_share_compact(self):
        # Removals append nothing; the dead rows alone trigger a compaction,
        # so a scan never wades through more than a share of them.
        mod, _ = multi_query_fleet(num_vehicles=60, num_queries=2)
        table = mod.build_index("rtree", max_box_extent=9.0)
        revision = mod.revision
        for object_id in list(mod.object_ids)[:30]:
            mod.remove(object_id)
            revision = sync(table, mod, revision)
            assert table._count - len(table) <= len(table) // _SLACK_SHARE
        assert table.compactions >= 1
        assert_equals_bulk_load(table, mod, 9.0)

    def test_divergence_times_use_the_shared_time_tolerance(self):
        # A box starting within TIME_TOLERANCE before a divergence time
        # still counts as "at or after" it, on both the retire and the
        # append side.  Eight one-box bystanders give the spare block room
        # for a row, so no compaction hides what the patch did.
        trajectory = UncertainTrajectory("a", [(0, 0, 0.0), (1, 1, 5.0), (2, 2, 9.0)], 0.2)
        bystanders = [
            UncertainTrajectory(f"b{k}", [(k, 9, 0.0), (k, 9, 9.0)], 0.2) for k in range(8)
        ]
        mod = MovingObjectsDatabase([trajectory, *bystanders])
        table = mod.build_index("rtree", max_box_extent=None)
        table.patch({"a": 5.0 + 5e-10}, mod.columnar())
        assert len(table) == 10 and table.compactions == 0
        assert [(e.object_id, e.box.t_min) for e in box_entries(table.boxes())[-1:]] == [
            ("a", 5.0)
        ]
        table.patch({"a": 5.0 + 5e-9}, mod.columnar())
        assert len(table) == 10
        assert [(e.object_id, e.box.t_min) for e in box_entries(table.boxes())[-1:]] == [
            ("a", 5.0)
        ]
        assert_equals_bulk_load(table, mod, None)

    def test_new_ids_and_emptying(self):
        mod = MovingObjectsDatabase()
        table = mod.build_index()
        a = UncertainTrajectory("a", [(0, 0, 0.0), (4, 0, 4.0), (4, 4, 8.0)], 0.5)
        b = UncertainTrajectory("b", [(9, 9, 0.0), (5, 9, 8.0)], 0.5)
        revision = mod.revision
        mod.add_all([a, b])
        revision = sync(table, mod, revision)
        assert len(table) == 3
        assert probe_corridor(table, a, 20.0, 0.0, 8.0) == {"b"}
        mod.remove("a")
        revision = sync(table, mod, revision)
        assert len(table) == 1
        mod.remove("b")
        revision = sync(table, mod, revision)
        assert len(table) == 0 and box_entries(table.boxes()) == []
        assert probe_box(table, Box3D(-50, -50, -50, 50, 50, 50)) == set()
        mod.add(UncertainTrajectory("c", [(0, 0, 0.0), (1, 1, 1.0)], 0.1))
        sync(table, mod, revision)
        assert probe_box(table, Box3D(0.5, 0.5, 0.5, 2, 2, 2)) == {"c"}


def test_loaded_arrays_are_not_aliased_to_the_callers():
    # Loading from arrays must copy: the table outlives the pack's box arrays.
    mod, _ = multi_query_fleet(num_vehicles=12, num_queries=2)
    boxes = segment_boxes_bulk(mod.columnar().pack())
    table = SegmentBoxTable(boxes)
    before = live_entries(table)
    boxes.x_min[:] = np.inf
    assert live_entries(table) == before


@pytest.mark.parametrize("per_pass", [1, 3])
def test_taking_the_probes_in_several_passes_changes_no_answer(monkeypatch, per_pass):
    # The window spans the fleet, so every live row takes part in a pass:
    # one probe box a pass, or three, which cuts members apart.
    from repro.index import table as module

    mod, query_ids = multi_query_fleet(num_vehicles=60, num_queries=4)
    table = mod.build_index("rtree")
    lo, hi = mod.common_time_span()
    members = [table.corridor_probes(mod.get(query_id), 6.0, lo, hi) for query_id in query_ids]
    assert max(member[0].shape[1] for member in members) > 3
    expected = table.probe(members)
    assert all(expected)
    monkeypatch.setattr(module, "_PAIR_BUDGET", per_pass * len(table))
    assert table.probe(members) == expected
    assert [table.probe([member])[0] for member in members] == expected
