"""A trajectory owns its columns and knows what it extends.

:meth:`~repro.trajectories.trajectory.Trajectory.extended` records its base
weakly, so :meth:`~repro.trajectories.trajectory.Trajectory.extends` is an
O(1) identity check.  These tests pin what that record must not change or
cost: the divergence times the MOD logs, the memory a long feed keeps, and
the samples tuples a restored store builds.
"""

from __future__ import annotations

import copy
import gc
import pickle
import weakref

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.engine import QueryEngine
from repro.persistence import PersistentStore, Snapshotter, load_snapshot
from repro.streaming.ingest import LocationFeed
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import Trajectory, UncertainTrajectory
from repro.workloads.scenarios import multi_query_fleet

IDS = ("obj-0", "obj-1", "obj-2")
_COORDS = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def divergence_by_values(old, new):
    """The divergence time from sample values (and the uncertainty) alone."""
    if (
        type(old.pdf) is not type(new.pdf)
        or abs(old.radius - new.radius) > 1e-12
        or old.pdf.support_radius != new.pdf.support_radius
    ):
        return None
    shared = 0
    for first, second in zip(old.samples, new.samples):
        if max(abs(first.t - second.t), abs(first.x - second.x), abs(first.y - second.y)) > 1e-12:
            break
        shared += 1
    if shared == 0:
        return None
    if shared == len(old.samples) == len(new.samples):
        return old.end_time
    return old.samples[shared - 1].t


def start(object_id):
    return UncertainTrajectory(object_id, [(0.0, 0.0, 0.0), (1.0, 1.0, 10.0)], 0.5)


@st.composite
def streams(draw):
    """Extend / rebuild / replace / remove / re-add steps over three vehicles."""
    kinds = ["extend", "extend", "rebuild", "branch", "columns", "replace", "remove", "add"]
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        tail = [
            (draw(_COORDS), draw(_COORDS), gap)
            for gap in draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), max_size=3))
        ]
        steps.append(
            (
                draw(st.sampled_from(kinds)),
                draw(st.sampled_from(IDS)),
                tail,
                draw(st.sampled_from([None, 0.5, 1.0])),
            )
        )
    return steps


def step_trajectory(kind, current, tail, radius):
    """The post-step trajectory of an object whose stored one is ``current``."""
    times = current.end_time + np.cumsum([0.0] + [gap for _, _, gap in tail])[1:]
    points = [(x, y, t) for (x, y, _), t in zip(tail, times.tolist())]
    if kind == "extend":
        return current.extended(points, radius)
    if kind == "rebuild":
        # Equal sample values, no extension record.
        samples = list(current.samples) + points
        return UncertainTrajectory(current.object_id, samples, radius or current.radius)
    if kind == "branch":
        # A value-equal prefix, then a different motion.
        cut = max(1, len(current) // 2)
        head = [(s.x, s.y, s.t) for s in current.samples[:cut]]
        last = head[-1]
        moved = [(last[0] + 3.0, last[1] - 3.0, last[2] + 1.0 + t - times[0]) for _, _, t in points]
        return UncertainTrajectory(
            current.object_id, head + (moved or [(last[0] + 1.0, last[1], last[2] + 1.0)]), 0.5
        )
    if kind == "columns":
        return UncertainTrajectory.from_columns(
            current.object_id, current.columns, current.radius, current.pdf
        )
    end = points[-1][2] if points else current.end_time
    return UncertainTrajectory(
        current.object_id, [(5.0, 5.0, 0.0), *points, (6.0, 6.0, end + 20.0)], 0.5
    )


@settings(max_examples=80, deadline=None)
@given(steps=streams())
def test_logged_divergence_times_equal_a_comparison_of_sample_values(steps):
    mod = MovingObjectsDatabase(start(object_id) for object_id in IDS)
    store = mod.columnar()
    for kind, object_id, tail, radius in steps:
        if kind == "remove":
            if object_id in mod and len(mod) > 1:
                mod.remove(object_id)
            continue
        if object_id not in mod:
            mod.add(start(object_id))
            continue
        if kind == "add":
            continue
        old = mod.get(object_id)
        new = step_trajectory(kind, old, tail, radius)
        mod.replace_trajectory(new)
        record = mod.changelog_records()[-1]
        assert record.divergence_time == divergence_by_values(old, new), kind
        assert new.extends(old) == (kind == "extend")
        store.sync()
        ts, xs, ys = store.columns(object_id)
        assert ts.tolist() == [s.t for s in new.samples]
        assert (xs.tolist(), ys.tolist()) == ([s.x for s in new.samples], [s.y for s in new.samples])


def test_a_long_feed_keeps_no_chain_of_earlier_trajectories(tmp_path):
    mod = MovingObjectsDatabase()
    store = PersistentStore(tmp_path, mod, fsync="never")
    feed = LocationFeed("car", max_speed=2.0, minimum_radius=0.3)
    feed.push((0.0, 0.0, 0.0))
    built = []
    for step in range(1, 1001):
        feed.push((0.5 * step, 0.1 * (step % 7), float(step)))
        trajectory = feed.trajectory()
        assert trajectory.extends(mod.get("car")) if built else "car" not in mod
        mod.upsert(trajectory)
        mod.columnar().pack()
        built.append(weakref.ref(trajectory))
    del trajectory
    gc.collect()
    alive = [ref for ref in built if ref() is not None]
    assert [ref() for ref in alive] == [mod.get("car")]
    ts, xs, _ = mod.columnar().columns("car")
    assert ts.tolist() == [float(step) for step in range(1001)]
    assert xs.tolist() == [0.5 * step for step in range(1001)]
    store.close()


def restored_fleet(tmp_path):
    mod, query_ids = multi_query_fleet(num_vehicles=60, num_queries=4)
    restored = load_snapshot(Snapshotter(tmp_path).write(mod).path).build_mod()
    return mod, restored, query_ids


def samples_built(mod):
    """Stored trajectories whose samples tuple exists."""
    return [trajectory.object_id for trajectory in mod if trajectory._samples is not None]


def test_a_restored_store_builds_only_the_query_samples(tmp_path):
    mod, restored, query_ids = restored_fleet(tmp_path)
    lo, hi = mod.common_time_span()
    restored.columnar().pack()
    restored.index()
    answer = QueryEngine(restored).answer(query_ids[0], lo, hi)
    assert answer == QueryEngine(mod).answer(query_ids[0], lo, hi)
    assert len(restored) == 60
    assert samples_built(restored) == [query_ids[0]]


def test_common_time_span_of_a_restored_store_builds_no_samples(tmp_path):
    mod, restored, _ = restored_fleet(tmp_path)
    assert restored.common_time_span() == mod.common_time_span()
    assert [len(trajectory) for trajectory in restored] == [len(trajectory) for trajectory in mod]
    assert samples_built(restored) == []


def test_an_extension_pickles_without_its_base_record():
    base = start("obj-0")
    extension = base.extended([(2.0, 2.0, 20.0)])
    extension.columns  # derived, so the copy must carry them
    clone = pickle.loads(pickle.dumps(extension))
    assert type(clone) is type(extension)
    assert clone.object_id == extension.object_id
    assert clone.samples == extension.samples
    assert clone.radius == extension.radius and type(clone.pdf) is type(extension.pdf)
    assert clone.pdf.support_radius == extension.pdf.support_radius
    assert clone._columns is not None
    for mine, theirs in zip(clone.columns, extension.columns):
        assert np.array_equal(mine, theirs)
    assert extension.extends(base) and not clone.extends(base)
    # An extension whose columns were never read pickles too.
    assert pickle.loads(pickle.dumps(base.extended([(3.0, 3.0, 30.0)]))).samples[-1].t == 30.0


def test_a_plain_trajectory_pickles_and_copies_with_every_slot():
    # The state is gathered slot by slot, not from ``object.__getstate__``,
    # which Python 3.10 lacks.
    base = start("obj-0")
    for clone in (pickle.loads(pickle.dumps(base)), copy.deepcopy(base), copy.copy(base)):
        assert type(clone) is type(base)
        assert clone.samples == base.samples and clone.radius == base.radius
        assert not clone.extends(base)
    plain = Trajectory("plain", base.samples)
    assert pickle.loads(pickle.dumps(plain)).samples == plain.samples
