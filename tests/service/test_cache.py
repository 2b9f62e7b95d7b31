"""Revision invalidation and LRU behavior of the result cache."""

from repro.query_language import PlannedStatement
from repro.service import ResultCache

ANSWER_A = {"a": ((0.0, 5.0),)}
ANSWER_B = {"b": ((1.0, 2.0),)}


def fp(query_id="q", t_start=0.0, t_end=10.0):
    return PlannedStatement(query_id, t_start, t_end)


class TestRevisionKeying:
    def test_hit_requires_matching_revision(self):
        cache = ResultCache()
        cache.put(fp(), 3, ANSWER_A)
        assert cache.get(fp(), 3) == ANSWER_A
        assert cache.get(fp(), 4) is None  # store mutated -> stale

    def test_revision_mismatch_drops_the_stale_entry(self):
        cache = ResultCache()
        cache.put(fp(), 3, ANSWER_A)
        cache.get(fp(), 4)
        assert len(cache) == 0
        assert cache.info().invalidations == 1

    def test_newer_revision_displaces_old_answer(self):
        cache = ResultCache()
        cache.put(fp(), 3, ANSWER_A)
        cache.put(fp(), 5, ANSWER_B)
        assert len(cache) == 1
        assert cache.get(fp(), 5) == ANSWER_B
        assert cache.get(fp(), 3) is None


class TestCapacity:
    def test_lru_eviction_beyond_capacity(self):
        cache = ResultCache(capacity=2)
        cache.put(fp("a"), 1, ANSWER_A)
        cache.put(fp("b"), 1, ANSWER_A)
        cache.get(fp("a"), 1)  # touch "a" so "b" is the LRU entry
        cache.put(fp("c"), 1, ANSWER_A)
        assert cache.get(fp("a"), 1) is not None
        assert cache.get(fp("b"), 1) is None
        assert cache.get(fp("c"), 1) is not None
        assert cache.info().evictions == 1

    def test_counters_and_hit_ratio(self):
        cache = ResultCache()
        cache.put(fp(), 1, ANSWER_A)
        cache.get(fp(), 1)
        cache.get(fp("other"), 1)
        info = cache.info()
        assert (info.hits, info.misses, info.size) == (1, 1, 1)
        assert info.hit_ratio == 0.5
