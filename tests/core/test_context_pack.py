"""A context owns one function pack and makes functions only on demand.

On the N=2000 city fleet a cold context is built from the columns of one
difference pass (``FunctionPack.from_columns``, once per prepare); the
envelope, the band pass and the level sweep read those columns and never
pack again, and the ``DistanceFunction`` objects made are the envelope
owners, the band survivors and the rows looked up — far fewer than one per
candidate.  Made functions are shared, one object per id, however many
threads ask.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.engine import QueryEngine
from repro.engine.answers import answer_of
from repro.geometry.envelope.bulk import FunctionPack, front_report, front_tally
from repro.workloads.scenarios import multi_query_fleet

COLUMNS = ("starts", "ends", "a", "b", "c", "offsets", "owner", "followers")


@pytest.fixture(scope="module")
def city():
    mod, query_ids = multi_query_fleet(num_vehicles=2000, num_queries=10, seed=29)
    return mod, query_ids


def windows(query_ids):
    """The rank_sweep-shaped windows: 12 minutes, one per query."""
    return [(query_id, 7.0 + 3.1 * position) for position, query_id in enumerate(query_ids)]


@pytest.fixture
def pack_spies(monkeypatch):
    """Counts of ``FunctionPack.from_columns`` and ``FunctionPack.__init__``."""
    calls = {"from_columns": 0, "init": 0}
    from_columns = FunctionPack.__dict__["from_columns"].__func__
    init = FunctionPack.__init__

    def counted_from_columns(cls, *args, **kwargs):
        calls["from_columns"] += 1
        return from_columns(cls, *args, **kwargs)

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(FunctionPack, "from_columns", classmethod(counted_from_columns))
    monkeypatch.setattr(FunctionPack, "__init__", counted_init)
    return calls


def test_few_objects_per_candidate_after_an_answer(city):
    mod, query_ids = city
    engine = QueryEngine(mod)
    candidates = made = 0
    for query_id, start in windows(query_ids):
        context = engine.prepare(query_id, start, start + 12.0).context
        answer_of(context, "sometime")
        candidates += len(context.pack)
        made += context.pack.materialized
    assert candidates >= 32 * len(query_ids)
    assert made / candidates <= 0.5


def test_one_pack_per_prepare_and_no_repacking_after_it(city, pack_spies):
    mod, query_ids = city
    engine = QueryEngine(mod)
    served = 0
    for query_id, start in windows(query_ids):
        before = pack_spies["from_columns"]
        context = engine.prepare(query_id, start, start + 12.0).context
        assert pack_spies["from_columns"] == before + 1
        inits = pack_spies["init"]
        tally = front_tally()
        answer_of(context, "sometime")
        context.level_envelopes(3)
        if front_report(tally)["dirty_slabs"]:
            continue  # a scalar slab makes every function; not this test's case
        served += 1
        assert pack_spies["init"] == inits
    assert served >= len(query_ids) // 2


def test_the_pack_from_columns_equals_the_pack_of_its_functions(city):
    mod, query_ids = city
    query_id, start = windows(query_ids)[0]
    pack = mod.distance_pack(query_id, start, start + 12.0)
    assert pack.materialized == 0
    functions = list(pack)
    eager = FunctionPack(functions)
    assert eager.ids == pack.ids
    for column in COLUMNS:
        left, right = getattr(pack, column), getattr(eager, column)
        assert left.dtype == right.dtype and left.tobytes() == right.tobytes(), column
    # The pack hands out the same object for a row every time.
    assert all(pack.function(row) is function for row, function in enumerate(functions))


def test_concurrent_readers_see_one_object_per_id(city):
    mod, query_ids = city
    engine = QueryEngine(mod)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for query_id, start in windows(query_ids):
            context = engine.prepare(query_id, start, start + 12.0).context
            answer_of(context, "sometime")  # the band pass: the readers race on rows
            race_readers(context)
    finally:
        sys.setswitchinterval(interval)


def race_readers(context) -> None:
    """Eight threads at once, half taking survivors, half level envelopes."""
    barrier = threading.Barrier(8, timeout=60.0)
    seen = [[] for _ in range(8)]

    def read(slot: int) -> None:
        barrier.wait()
        if slot % 2:
            seen[slot].extend(context.survivors())
        else:
            for level in context.level_envelopes(3).levels:
                seen[slot].extend(piece.function for piece in level.pieces)

    threads = [threading.Thread(target=read, args=(slot,)) for slot in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not any(thread.is_alive() for thread in threads)
    assert all(seen)
    by_id = {}
    for function in (function for objects in seen for function in objects):
        assert by_id.setdefault(function.object_id, function) is function
    assert set(by_id) >= set(context.uq31_all_sometime())
    assert all(context.functions[object_id] is by_id[object_id] for object_id in by_id)
    owners = {piece.object_id: piece.function for piece in context.envelope.pieces}
    assert all(by_id.get(object_id, function) is function for object_id, function in owners.items())
