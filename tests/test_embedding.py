"""Unit tests for embedding tables, frequency counting and sharding."""

import numpy as np
import pytest

from repro.embedding import (
    EmbeddingTable,
    FrequencyCounter,
    shard_for_id,
)


class TestEmbeddingTable:
    def test_lazy_rows(self):
        table = EmbeddingTable(dim=4)
        assert len(table) == 0
        table.lookup(np.array([1, 2, 3]))
        assert len(table) == 3

    def test_lookup_shape_and_dtype(self):
        table = EmbeddingTable(dim=8)
        rows = table.lookup(np.array([5, 9]))
        assert rows.shape == (2, 8)
        assert rows.dtype == np.float32

    def test_lookup_is_stable(self):
        table = EmbeddingTable(dim=4, seed=1)
        first = table.lookup(np.array([42]))
        second = table.lookup(np.array([42]))
        assert np.array_equal(first, second)

    def test_same_seed_tables_agree(self):
        one = EmbeddingTable(dim=4, seed=7)
        two = EmbeddingTable(dim=4, seed=7)
        ids = np.array([3, 11, 3000])
        assert np.array_equal(one.lookup(ids), two.lookup(ids))

    def test_scatter_update(self):
        table = EmbeddingTable(dim=2)
        table.scatter_update(np.array([1]), np.array([[1.0, 2.0]]))
        assert np.array_equal(table.lookup(np.array([1])),
                              np.array([[1.0, 2.0]], dtype=np.float32))

    def test_scatter_update_last_write_wins(self):
        table = EmbeddingTable(dim=1)
        table.scatter_update(np.array([1, 1]),
                             np.array([[1.0], [2.0]]))
        assert table.lookup(np.array([1]))[0, 0] == 2.0

    def test_scatter_add_accumulates_duplicates(self):
        table = EmbeddingTable(dim=1)
        table.scatter_update(np.array([1]), np.array([[0.0]]))
        table.scatter_add(np.array([1, 1]), np.array([[1.0], [2.0]]))
        assert table.lookup(np.array([1]))[0, 0] == pytest.approx(3.0)

    def test_shape_validation(self):
        table = EmbeddingTable(dim=4)
        with pytest.raises(ValueError):
            table.scatter_update(np.array([1]), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            table.scatter_add(np.array([1, 2]), np.zeros((1, 4)))

    def test_memory_accounting(self):
        table = EmbeddingTable(dim=4)
        table.lookup(np.arange(10))
        assert table.memory_bytes() == 10 * 4 * 4

    def test_contains(self):
        table = EmbeddingTable(dim=4)
        table.lookup(np.array([5]))
        assert 5 in table
        assert 6 not in table

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            EmbeddingTable(dim=0)


class TestFrequencyCounter:
    def test_observe_and_count(self):
        counter = FrequencyCounter()
        counter.observe(np.array([1, 1, 2]))
        assert counter.count(1) == 2
        assert counter.count(2) == 1
        assert counter.count(99) == 0

    def test_top_k_order(self):
        counter = FrequencyCounter()
        counter.observe(np.array([3] * 5 + [1] * 3 + [2]))
        assert counter.top_k(2) == [3, 1]

    def test_top_k_zero(self):
        assert FrequencyCounter().top_k(0) == []

    def test_totals(self):
        counter = FrequencyCounter()
        counter.observe(np.array([1, 2, 2]))
        counter.observe(np.array([2]))
        assert counter.distinct_ids() == 2
        assert counter.total_observations() == 4

    def test_reset(self):
        counter = FrequencyCounter()
        counter.observe(np.array([1]))
        counter.reset()
        assert counter.distinct_ids() == 0

    def test_most_common_tie_breaks_on_smaller_id(self):
        counter = FrequencyCounter()
        counter.observe(np.array([5, 5, 2, 2, 9]))
        assert counter.most_common(3) == [(2, 2), (5, 2), (9, 1)]
        assert counter.top_k(2) == [2, 5]

    def test_most_common_is_arrival_order_independent(self):
        # Counter.most_common alone breaks ties on insertion order;
        # the deterministic tie-break must erase that history.
        forward = FrequencyCounter()
        forward.observe(np.array([7, 3, 3, 7, 11]))
        backward = FrequencyCounter()
        backward.observe(np.array([11]))
        backward.observe(np.array([7, 7]))
        backward.observe(np.array([3, 3]))
        assert forward.most_common(10) == backward.most_common(10)


class TestSharding:
    def test_shards_in_range(self):
        shards = shard_for_id(np.arange(1000), 16)
        assert shards.min() >= 0
        assert shards.max() < 16

    def test_deterministic(self):
        ids = np.arange(100)
        assert np.array_equal(shard_for_id(ids, 8), shard_for_id(ids, 8))

    def test_roughly_balanced(self):
        shards = shard_for_id(np.arange(100_000), 16)
        counts = np.bincount(shards, minlength=16)
        assert counts.min() > 100_000 / 16 * 0.8
        assert counts.max() < 100_000 / 16 * 1.2

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_for_id(np.arange(5), 0)
