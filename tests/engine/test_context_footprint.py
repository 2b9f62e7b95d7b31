"""A cached context's footprint does not grow with its non-survivors.

A context keeps the band survivors' rows and intervals, not one list, one
interval-map entry and one row-map entry per candidate.  Two contexts for
one query and one window, whose candidate sets differ only by many
candidates far outside the band, have the same survivors and answers; after
every answer is taken, the same number of container objects (what the
collector can track) must be reachable from each.  The pack's columns are
NumPy arrays and are not counted: their length grows, their number does
not.
"""

from __future__ import annotations

import gc
import types

import numpy as np

from repro.core.queries import VARIANTS, QueryContext
from repro.engine import answer_of
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import UncertainTrajectory

T_LO, T_HI = 2.0, 18.0
ATOMS = (str, bytes, int, float, complex, type(None), np.ndarray)


def fleet(far: int) -> MovingObjectsDatabase:
    """A query at the origin, six vehicles crossing near it and ``far``
    vehicles a thousand units away."""
    trajectories = [UncertainTrajectory("query", [(0.0, 0.0, 0.0), (1.0, 0.0, 20.0)], 0.5)]
    for index in range(6):
        offset = 1.0 + index
        trajectories.append(UncertainTrajectory(
            f"near-{index}", [(-offset, offset, 0.0), (offset, -0.5 * offset, 20.0)], 0.5
        ))
    for index in range(far):
        trajectories.append(UncertainTrajectory(
            f"far-{index:03d}", [(1000.0 + index, 0.0, 0.0), (1000.0 + index, 5.0, 20.0)], 0.5
        ))
    return MovingObjectsDatabase(trajectories)


def served(mod: MovingObjectsDatabase) -> QueryContext:
    """A context after every answer a service would take from it."""
    context = QueryContext.from_mod(mod, "query", T_LO, T_HI)
    for variant in VARIANTS:
        answer_of(context, variant, 0.5)
    context.survivor_intervals()
    context.pruning_statistics()
    for object_id in context.pack.ids:
        context.uq11_sometime(object_id)
        context.uq13_fraction(object_id)
    return context


def tracked_objects(root: object) -> int:
    """Container objects reachable from ``root``: what the collector can
    track (a tuple or dict of atoms included, which it stops tracking only
    when a collection sees it), not NumPy arrays, and not reached through
    classes, modules or functions (shared by every context)."""
    skipped = ATOMS + (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen = {id(root)}
    stack = [root]
    while stack:
        for referent in gc.get_referents(stack.pop()):
            if not isinstance(referent, skipped) and id(referent) not in seen:
                seen.add(id(referent))
                stack.append(referent)
    return len(seen)


def test_non_survivors_add_no_object_to_a_served_context():
    # Both sets are large enough for the kinetic front, so both envelopes
    # make functions for their owners only.
    small, large = served(fleet(far=100)), served(fleet(far=400))
    assert len(large.pack) == len(small.pack) + 300
    assert large.uq31_all_sometime() == small.uq31_all_sometime()
    for variant in VARIANTS:
        assert answer_of(large, variant, 0.5) == answer_of(small, variant, 0.5)
    assert tracked_objects(large) == tracked_objects(small)
