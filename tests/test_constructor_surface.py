"""The serving classes' constructors only shrink.

Each keyword below was deleted because nothing outside tests and examples
set it; passing one must fail loudly instead of being ignored, and the
settable values of the six serving classes (20) and of the result cache
(2) are pinned so a new option is a deliberate change to this file.
"""

import inspect

import pytest

from repro.engine import QueryEngine
from repro.parallel import ShardedEngine
from repro.query_language import QueryExecutor
from repro.service import EnginePool, QueryService, ResultCache
from repro.streaming import ContinuousMonitor
from repro.workloads.scenarios import multi_query_fleet

SERVING_CLASSES = (
    QueryService, EnginePool, QueryEngine, QueryExecutor, ContinuousMonitor, ShardedEngine,
)

REMOVED = [
    (QueryService, "coalesce_delay", 0.01),
    (QueryService, "cache_capacity", 16),
    (QueryService, "cache_ttl", 5.0),
    (QueryService, "executor", None),
    (QueryService, "pool", None),
    (QueryService, "max_batch", 8),
    (ResultCache, "ttl", 5.0),
    (ResultCache, "clock", lambda: 0.0),
    (QueryEngine, "cache_size", 64),
    (QueryExecutor, "cache_size", 64),
    (ContinuousMonitor, "cache_size", 64),
]


def settable(cls):
    return [name for name in inspect.signature(cls.__init__).parameters if name != "self"]


@pytest.fixture(scope="module")
def mod():
    return multi_query_fleet(num_vehicles=6, num_queries=1)[0]


@pytest.mark.parametrize(
    "cls,keyword,value", REMOVED, ids=[f"{cls.__name__}-{kw}" for cls, kw, _ in REMOVED]
)
def test_a_removed_keyword_raises(mod, cls, keyword, value):
    args = () if cls is ResultCache else (mod,)
    with pytest.raises(TypeError, match=keyword):
        cls(*args, **{keyword: value})


def test_settable_values_are_pinned():
    assert {cls.__name__: settable(cls) for cls in SERVING_CLASSES} == {
        "QueryService": [
            "mod", "data_dir", "snapshot_interval", "persistence_fsync",
            "snapshot_retain", "queue_limit", "admission", "registry",
        ],
        "EnginePool": ["mod", "registry"],
        "QueryEngine": ["mod", "registry"],
        "QueryExecutor": ["mod", "registry"],
        "ContinuousMonitor": ["mod", "registry"],
        "ShardedEngine": ["mod", "num_shards", "backend", "registry"],
    }
    assert sum(len(settable(cls)) for cls in SERVING_CLASSES) == 20
    assert settable(ResultCache) == ["capacity", "registry"]


def test_the_sharded_engine_is_an_engine_pool():
    assert issubclass(ShardedEngine, EnginePool)
