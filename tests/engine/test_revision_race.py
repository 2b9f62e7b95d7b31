"""A change that lands while derived state syncs is synced later, not lost.

The engine's contexts and the columnar store both record the store revision
they synced to.  They must record the revision they read *before* reading
the changelog: a mutation from another thread (a monitor applying updates
while the service evaluates) that lands after that read is then still
unseen, and the next sync processes it.  Each test lands such a change from
inside the sync and compares what follows with state built from scratch.
"""

import numpy as np

from repro.engine import QueryEngine
from repro.trajectories.columnar import ColumnarStore
from repro.trajectories.trajectory import UncertainTrajectory
from repro.workloads.scenarios import multi_query_fleet


def shifted(trajectory, offset):
    """The trajectory moved ``offset`` units along both axes."""
    return UncertainTrajectory(
        trajectory.object_id,
        [(s.x + offset, s.y + offset, s.t) for s in trajectory.samples],
        trajectory.radius,
    )


def far_away(object_id, lo, hi):
    return UncertainTrajectory(object_id, [(9e3, 9e3, lo), (9.1e3, 9.1e3, hi)], 0.3)


def test_a_change_landing_inside_a_refresh_is_invalidated_by_the_next():
    mod, query_ids = multi_query_fleet(num_vehicles=48, num_queries=5, seed=29)
    lo, hi = mod.common_time_span()
    query_id = query_ids[0]
    engine = QueryEngine(mod)
    member = next(m for m in engine.answer(query_id, lo, hi) if m != query_id)
    moved = shifted(mod.get(member), 500.0)
    invalidate = engine._invalidate_affected
    raced = []

    def racing_invalidate(changed):
        invalidate(changed)
        if not raced:
            raced.append(mod.revision)
            mod.replace_trajectory(moved)

    engine._invalidate_affected = racing_invalidate
    # A far-away insert starts a refresh that keeps the query's context; the
    # replace lands inside it, after the changelog was read.
    mod.add(far_away("far", lo, hi))
    engine.answer(query_id, lo, hi)
    assert raced

    for _ in range(2):
        answer = engine.answer(query_id, lo, hi)
        assert member not in answer
        assert answer == QueryEngine(mod).answer(query_id, lo, hi)


def test_an_object_replaced_inside_a_columnar_sync_is_re_read_by_the_next():
    mod, _ = multi_query_fleet(num_vehicles=12, num_queries=2, seed=29)
    lo, hi = mod.common_time_span()
    store = ColumnarStore(mod)
    victim = mod.object_ids[0]
    moved = shifted(mod.get(victim), 500.0)
    adopt = store._adopt
    raced = []

    def racing_adopt(trajectory):
        adopt(trajectory)
        if not raced:
            raced.append(mod.revision)
            mod.replace_trajectory(moved)

    store._adopt = racing_adopt
    mod.add(far_away("far", lo, hi))
    store.sync()
    assert raced

    fresh = ColumnarStore(mod)
    for _ in range(2):
        for got, want in zip(store.columns(victim), fresh.columns(victim)):
            assert np.array_equal(got, want)
        assert store.revision == mod.revision
