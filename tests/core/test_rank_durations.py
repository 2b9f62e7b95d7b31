"""Rank durations are read off the level stack in one pass, with the old floats.

:func:`repro.core.queries.rank_durations` builds every owner's time on
levels ``1..k`` at once, for UQ21-23 and UQ42/43.  Over random level stacks
each total is ``==`` the per-owner sum it replaces: one
``Envelope.total_duration_of`` per level, added in level order.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.queries import rank_durations
from repro.geometry.envelope.klevel import LevelEnvelopes
from repro.geometry.envelope.pieces import Envelope, EnvelopePiece


def per_owner_sum(levels, k, owner):
    total = 0.0
    for level_index in range(1, min(k, len(levels)) + 1):
        total += levels.level(level_index).total_duration_of(owner)
    return total


def random_stack(rng, owners):
    """Levels of pieces with gaps, widths across six orders of magnitude."""
    levels = []
    for _ in range(int(rng.integers(1, 6))):
        pieces, t = [], float(rng.uniform(0.0, 1e3))
        for _ in range(int(rng.integers(1, 40))):
            if rng.random() < 0.3:
                t += float(10.0 ** rng.uniform(-3, 2))  # a gap
            end = t + float(10.0 ** rng.uniform(-3, 3))
            pieces.append(EnvelopePiece(owners[int(rng.integers(len(owners)))], t, end))
            t = end
        levels.append(Envelope(pieces))
    return LevelEnvelopes(levels[0].t_start, max(level.t_end for level in levels), levels)


@pytest.mark.parametrize("seed", range(40))
def test_every_total_equals_the_per_level_per_owner_sum(seed):
    rng = np.random.default_rng(seed)
    owners = [SimpleNamespace(object_id=f"o{i}") for i in range(int(rng.integers(2, 9)))]
    levels = random_stack(rng, owners)
    for k in range(1, len(levels) + 2):
        totals = rank_durations(levels, k)
        for owner in owners:
            expected = per_owner_sum(levels, k, owner.object_id)
            assert totals.get(owner.object_id, 0.0) == expected
        assert set(totals) <= {owner.object_id for owner in owners}
