"""Unit tests for the multi-level cache (HybridHash extension)."""

import numpy as np
import pytest

from repro.data.spec import FieldSpec
from repro.data.synthetic import FieldSampler
from repro.embedding import EmbeddingTable
from repro.embedding.multilevel import (
    CacheTier,
    DEFAULT_TIERS,
    MultiLevelCache,
)


def _tiers(hot_rows=4, warm_rows=16):
    return (
        CacheTier("hbm", capacity_bytes=hot_rows * 16,
                  access_seconds_per_byte=1e-12),
        CacheTier("dram", capacity_bytes=warm_rows * 16,
                  access_seconds_per_byte=1e-11),
        CacheTier("ssd", capacity_bytes=float("inf"),
                  access_seconds_per_byte=1e-9),
    )


def _cache(warmup=2, flush=2, **kwargs):
    table = EmbeddingTable(dim=4, seed=0)
    return MultiLevelCache(table, tiers=_tiers(**kwargs),
                           warmup_iters=warmup, flush_iters=flush)


class TestConstruction:
    def test_requires_tiers(self):
        with pytest.raises(ValueError):
            MultiLevelCache(EmbeddingTable(dim=4), tiers=())

    def test_requires_fastest_first(self):
        bad = (_tiers()[2], _tiers()[0])
        with pytest.raises(ValueError):
            MultiLevelCache(EmbeddingTable(dim=4), tiers=bad)

    def test_tier_validation(self):
        with pytest.raises(ValueError):
            CacheTier("x", capacity_bytes=-1,
                      access_seconds_per_byte=1.0)

    def test_default_tiers_ordered(self):
        costs = [tier.access_seconds_per_byte for tier in DEFAULT_TIERS]
        assert costs == sorted(costs)


class TestPlacement:
    def test_everything_bottom_before_flush(self):
        cache = _cache(warmup=10)
        cache.lookup(np.array([1, 2, 3]))
        assert cache.tier_of(1) == "ssd"

    def test_hottest_rows_float_up(self):
        cache = _cache(warmup=1, flush=1, hot_rows=1, warm_rows=2)
        for _step in range(4):
            cache.lookup(np.array([9, 9, 9, 5, 5, 2]))
        assert cache.tier_of(9) == "hbm"
        assert cache.tier_of(5) == "dram"
        assert cache.tier_of(2) in ("dram", "ssd")

    def test_rows_per_tier_respects_capacity(self):
        cache = _cache(warmup=1, flush=1, hot_rows=4, warm_rows=16)
        for step in range(6):
            cache.lookup(np.arange(step * 10, step * 10 + 10))
        counts = cache.rows_per_tier()
        assert counts["hbm"] <= 4
        assert counts["dram"] <= 16
        assert sum(counts.values()) == cache.counter.distinct_ids()


class TestLookupSemantics:
    def test_transparent_results(self):
        cache = _cache()
        plain = EmbeddingTable(dim=4, seed=0)
        rng = np.random.default_rng(0)
        for _step in range(8):
            ids = rng.integers(0, 100, size=32)
            assert np.array_equal(cache.lookup(ids), plain.lookup(ids))

    def test_update_reaches_table(self):
        cache = _cache()
        cache.lookup(np.array([1]))
        before = cache.table.lookup(np.array([1])).copy()
        cache.update(np.array([1]), np.ones((1, 4), dtype=np.float32))
        assert np.allclose(cache.table.lookup(np.array([1])) - before,
                           1.0)


class TestHitAccounting:
    def test_skewed_stream_hits_fast_tiers(self):
        field = FieldSpec(name="f", vocab_size=50_000, embedding_dim=4,
                          zipf_exponent=1.3)
        sampler = FieldSampler(field, seed=2)
        table = EmbeddingTable(dim=4, seed=0)
        cache = MultiLevelCache(
            table,
            tiers=(
                CacheTier("hbm", 2_000 * 16, 1e-12),
                CacheTier("dram", 20_000 * 16, 1e-11),
                CacheTier("ssd", float("inf"), 1e-9),
            ),
            warmup_iters=5, flush_iters=5)
        for _step in range(40):
            cache.lookup(sampler.sample_batch(256))
        fractions = cache.hit_fractions()
        assert fractions["hbm"] > 0.1
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_access_cost_prefers_hot_placement(self):
        cache = _cache(warmup=1, flush=1, hot_rows=2, warm_rows=4)
        for _step in range(4):
            cache.lookup(np.array([1, 1, 1, 1]))
        hot_cost = cache.expected_access_cost(np.array([1]))
        cold_cost = cache.expected_access_cost(np.array([999]))
        assert hot_cost < cold_cost

    def test_no_hits_recorded_in_warmup(self):
        cache = _cache(warmup=10)
        cache.lookup(np.array([1, 2]))
        assert all(stats.hits == 0 for stats in cache.stats.values())

    def test_empty_hit_fractions(self):
        cache = _cache(warmup=10)
        assert sum(cache.hit_fractions().values()) == 0.0


class TestExtensionValue:
    """SS III-D's multi-level extension of HybridHash.

    One skewed 300k-ID field: with a DRAM-sized middle tier, the share
    of lookups that fall through to the slowest storage collapses and
    the modeled access cost drops accordingly.
    """

    FIELD = FieldSpec(name="f", vocab_size=300_000, embedding_dim=8,
                      zipf_exponent=1.2)
    ROW_BYTES = FIELD.embedding_dim * 4

    def _tiered(self, iters):
        """2k hot rows in HBM, 120k warm rows in DRAM, the rest on SSD."""
        return MultiLevelCache(
            EmbeddingTable(dim=self.FIELD.embedding_dim),
            tiers=(
                CacheTier("hbm", 2_000 * self.ROW_BYTES, 1.0 / 800e9),
                CacheTier("dram", 120_000 * self.ROW_BYTES, 1.0 / 80e9),
                CacheTier("ssd", float("inf"), 1.0 / 2e9),
            ),
            warmup_iters=iters, flush_iters=iters)

    def test_middle_tier_collapses_the_slow_tail(self):
        sampler = FieldSampler(self.FIELD, seed=9)
        multi = self._tiered(iters=10)
        for _step in range(60):
            multi.lookup(sampler.sample_batch(512))
        pct = {name: round(value * 100, 1)
               for name, value in multi.hit_fractions().items()}
        assert pct["hbm"] > 25.0
        # The cached tiers together outweigh the slow-storage tail
        # (which, in a streaming workload, is dominated by
        # never-seen-before IDs that no cache can hold yet).
        assert pct["hbm"] + pct["dram"] > pct["ssd"]
        assert pct["ssd"] < 50.0

    def test_access_cost_improves_with_tiers(self):
        sampler = FieldSampler(self.FIELD, seed=11)
        flat = MultiLevelCache(
            EmbeddingTable(dim=self.FIELD.embedding_dim),
            tiers=(CacheTier("ssd", float("inf"), 1.0 / 2e9),),
            warmup_iters=5, flush_iters=5)
        tiered = self._tiered(iters=5)
        probe = None
        for _step in range(30):
            probe = sampler.sample_batch(512)
            flat.lookup(probe)
            tiered.lookup(probe)
        assert round(tiered.expected_access_cost(probe) * 1e6, 2) \
            < round(flat.expected_access_cost(probe) * 1e6, 2)


class TestServingEdgeCases:
    """Edge cases the online serving path exercises."""

    def test_zero_capacity_top_tier(self):
        tiers = (
            CacheTier("hbm", capacity_bytes=0.0,
                      access_seconds_per_byte=1e-12),
            CacheTier("dram", capacity_bytes=float("inf"),
                      access_seconds_per_byte=1e-11),
        )
        cache = MultiLevelCache(EmbeddingTable(dim=4, seed=0),
                                tiers=tiers, warmup_iters=1,
                                flush_iters=1)
        for _step in range(5):
            cache.lookup(np.array([1, 1, 2, 3]))
        assert cache.rows_per_tier()["hbm"] == 0
        assert cache.tier_of(1) == "dram"
        assert cache.stats["hbm"].hits == 0

    def test_all_rows_fit_in_top_tier(self):
        tiers = (
            CacheTier("hbm", capacity_bytes=float("inf"),
                      access_seconds_per_byte=1e-12),
            CacheTier("dram", capacity_bytes=float("inf"),
                      access_seconds_per_byte=1e-11),
        )
        cache = MultiLevelCache(EmbeddingTable(dim=4, seed=0),
                                tiers=tiers, warmup_iters=1,
                                flush_iters=1)
        for _step in range(4):
            cache.lookup(np.arange(20))
        assert all(cache.tier_of(key) == "hbm" for key in range(20))
        # Post-flush lookups all hit the pinned top tier.
        cache.lookup(np.arange(20))
        assert cache.stats["hbm"].hits > 0
        assert cache.stats["dram"].hits == 0

    def test_flush_deterministic_when_frequencies_tie(self):
        def build():
            cache = _cache(warmup=1, flush=1, hot_rows=2, warm_rows=4)
            # Every ID appears exactly once per batch: all counts tie.
            for _step in range(3):
                cache.lookup(np.array([7, 3, 9, 1, 5]))
            return cache

        first, second = build(), build()
        placements = [
            {key: cache.tier_of(key) for key in (7, 3, 9, 1, 5)}
            for cache in (first, second)
        ]
        assert placements[0] == placements[1]
        # Capacity still binds under ties: exactly hot_rows in hbm.
        counts = first.rows_per_tier()
        assert counts["hbm"] == 2

    def test_access_latency_validated(self):
        with pytest.raises(ValueError):
            CacheTier("x", capacity_bytes=1.0,
                      access_seconds_per_byte=1.0, access_latency=-1.0)

    def test_access_latency_in_expected_cost(self):
        tiers = (CacheTier("dram", float("inf"), 0.0,
                           access_latency=1e-6),)
        cache = MultiLevelCache(EmbeddingTable(dim=4, seed=0),
                                tiers=tiers, warmup_iters=1,
                                flush_iters=1)
        cost = cache.expected_access_cost(np.array([1, 2, 3]))
        assert cost == pytest.approx(3e-6)


class TestStatsExport:
    def test_stats_as_dict_structure(self):
        cache = _cache(warmup=1, flush=1)
        for _step in range(4):
            cache.lookup(np.array([1, 1, 2]))
        snapshot = cache.stats_as_dict()
        assert set(snapshot["tiers"]) == {"hbm", "dram", "ssd"}
        assert snapshot["queries"] == sum(
            stats["hits"] for stats in snapshot["tiers"].values())
        fractions = snapshot["hit_fractions"]
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert snapshot["hit_ratio"] == fractions["hbm"]

    def test_tier_stats_as_dict(self):
        cache = _cache(warmup=0, flush=1)
        cache.lookup(np.array([4]))
        assert cache.stats["ssd"].as_dict() == {
            "hits": cache.stats["ssd"].hits}
