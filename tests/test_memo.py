"""The one process-wide memo: LRU order, counters and the registry."""

import pytest

from repro import api, memo
from repro.memo import Memo
from tests.test_api import TINY


def _identity(value):
    return value


class TestMemo:
    def test_miss_computes_and_hit_does_not(self):
        calls = []

        def compute(value):
            calls.append(value)
            return value * 2

        cache = Memo("test.compute", 4)
        assert cache.get("a", compute, 1) == 2
        assert cache.get("a", compute, 5) == 2
        assert calls == [1]

    def test_oldest_entry_evicted_at_maxsize(self):
        cache = Memo("test.evict", 2)
        cache.get("a", _identity, 1)
        cache.get("b", _identity, 2)
        cache.get("c", _identity, 3)
        assert cache.stats()["size"] == 2
        assert cache.get("a", _identity, 10) == 10  # recomputed
        assert cache.evictions == 2  # "a" pushed out "b"

    def test_hit_refreshes_an_entry(self):
        cache = Memo("test.refresh", 2)
        cache.get("a", _identity, 1)
        cache.get("b", _identity, 2)
        cache.get("a", _identity, 0)  # "a" is now the most recent
        cache.get("c", _identity, 3)  # so "b" is evicted
        assert cache.get("a", _identity, 0) == 1
        assert cache.get("b", _identity, 20) == 20

    def test_counters(self):
        cache = Memo("test.counters", 2)
        for key in ("a", "a", "b", "a", "c", "b"):
            cache.get(key, _identity, key)
        assert cache.stats() == {"hits": 2, "misses": 4, "evictions": 2,
                                 "size": 2, "maxsize": 2}

    def test_raising_compute_stores_nothing(self):
        def fail():
            raise RuntimeError("boom")

        cache = Memo("test.raise", 2)
        with pytest.raises(RuntimeError, match="boom"):
            cache.get("a", fail)
        assert cache.stats()["size"] == 0
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache.get("a", _identity, 7) == 7

    def test_none_is_a_value(self):
        cache = Memo("test.none", 2)
        cache.get("a", _identity, None)
        assert cache.get("a", _identity, 1) is None
        assert cache.hits == 1


class TestRegistry:
    def test_stats_lists_every_program_memo(self):
        assert {"model", "cluster", "imbalance", "hit_ratio", "plan",
                "compile", "unique_fraction"} <= set(memo.stats())

    def test_clear_all_empties_every_memo(self):
        extra = Memo("test.clear_all", 4)
        extra.get("a", _identity, 1)
        api.run(TINY)
        assert any(counts["size"] for counts in memo.stats().values())
        memo.clear_all()
        for counts in memo.stats().values():
            assert counts == {"hits": 0, "misses": 0, "evictions": 0,
                              "size": 0, "maxsize": counts["maxsize"]}

    def test_run_is_the_same_before_and_after_clear_all(self):
        # No run leaks state into the next through a memo: a cold
        # rerun reproduces a warm one exactly.
        warm = api.run(TINY)
        memo.clear_all()
        cold = api.run(TINY)
        assert cold.result.summary().as_dict() \
            == warm.result.summary().as_dict()
        assert cold.ips == warm.ips
        assert cold.op_count == warm.op_count
