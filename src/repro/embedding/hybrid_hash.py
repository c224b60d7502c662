"""``HybridHash``: the paper's Algorithm 1, line for line.

Cold-storage (DRAM) holds the authoritative hashmap; Hot-storage (GPU
device memory) is a scratchpad caching the top-k most frequently
queried embeddings.  During ``warmup_iters`` every query goes to
cold-storage while frequencies accumulate; afterwards queries split
between hot and cold, and every ``flush_iters`` iterations the hot set
is refreshed from the frequency counter.

If, at the end of warm-up, the whole table fits in Hot-storage, the
cache pins everything hot (Algorithm 1's "place all data on
Hot-storage" escape hatch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.embedding.counter import FrequencyCounter
from repro.embedding.table import EmbeddingTable


@dataclass
class CacheStats:
    """Running hit/miss statistics of a :class:`HybridHash`."""

    hot_hits: int = 0
    cold_misses: int = 0
    flushes: int = 0

    @property
    def queries(self) -> int:
        """Total post-warm-up lookups."""
        return self.hot_hits + self.cold_misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of post-warm-up lookups served by Hot-storage."""
        if self.queries == 0:
            return 0.0
        return self.hot_hits / self.queries

    def as_dict(self) -> dict:
        """Plain-dict snapshot for metrics export and benchmarks."""
        return {
            "hot_hits": self.hot_hits,
            "cold_misses": self.cold_misses,
            "flushes": self.flushes,
            "queries": self.queries,
            "hit_ratio": self.hit_ratio,
        }


class HybridHash:
    """Hot/cold cached embedding store (Algorithm 1).

    :param hot_bytes: Hot-storage capacity in bytes; the top-k is sized
        as ``hot_bytes // (dim * 4)`` rows.
    :param warmup_iters: iterations that only collect statistics.
    :param flush_iters: hot-set refresh period (L23-26 of Algorithm 1).
    """

    def __init__(self, table: EmbeddingTable, hot_bytes: float,
                 warmup_iters: int = 100, flush_iters: int = 100):
        if hot_bytes < 0:
            raise ValueError(f"hot_bytes must be >= 0, got {hot_bytes}")
        if warmup_iters < 0:
            raise ValueError("warmup_iters must be >= 0")
        if flush_iters < 1:
            raise ValueError("flush_iters must be >= 1")
        self.cold = table
        self.hot_capacity_rows = int(hot_bytes // (table.dim * 4))
        self.warmup_iters = warmup_iters
        self.flush_iters = flush_iters
        self.counter = FrequencyCounter()
        self.stats = CacheStats()
        #: per post-warm-up iteration hit ratio, the cache-health
        #: monitor's raw signal (entry k is iteration warmup_iters + k).
        self.hit_history: list = []
        #: iteration counts at which the hot set was flushed.
        self.flush_history: list = []
        self._hot_ids: set = set()
        #: sorted int64 mirror of ``_hot_ids`` for vectorized
        #: membership tests (``np.isin`` over a query batch).
        self._hot_arr: np.ndarray = np.empty(0, dtype=np.int64)
        self._iteration = 0
        self._pin_all = False

    @property
    def iteration(self) -> int:
        """Iterations processed so far."""
        return self._iteration

    @property
    def in_warmup(self) -> bool:
        """Whether the cache is still in its statistics-only phase."""
        return self._iteration < self.warmup_iters

    @property
    def hot_ids(self) -> frozenset:
        """The IDs currently pinned in Hot-storage."""
        return frozenset(self._hot_ids)

    def lookup(self, ids: np.ndarray) -> np.ndarray:
        """Algorithm 1's ``HYBRIDHASH(IDs, itr)``: fetch embeddings.

        Returns rows in query order; advances the iteration counter and
        performs the periodic hot-set flush.
        """
        ids = np.asarray(ids).ravel()
        if self.in_warmup:
            # L9-12: count and serve from cold storage.
            self.counter.observe(ids)
            result = self.cold.lookup(ids)
            self._iteration += 1
            if not self.in_warmup:
                self._maybe_pin_all()
                self._flush()
            return result

        # L14-21: split between hot hits and cold misses, keep counting.
        self.counter.observe(ids)
        if self._pin_all:
            hits = int(ids.size)
        else:
            keys = ids.astype(np.int64, copy=False)
            hits = int(np.isin(keys, self._hot_arr,
                               assume_unique=False).sum())
        self.stats.hot_hits += hits
        self.stats.cold_misses += int(ids.size) - hits
        self.hit_history.append(hits / ids.size if ids.size else 0.0)
        result = self.cold.lookup(ids)

        self._iteration += 1
        # L23-26: periodic refresh of the hot set.
        if self._iteration % self.flush_iters == 0:
            self._flush()
        return result

    def update(self, ids: np.ndarray, deltas: np.ndarray) -> None:
        """Apply gradient deltas; cold storage is authoritative."""
        self.cold.scatter_add(ids, deltas)

    def batch_hit_ratio(self, ids: np.ndarray) -> float:
        """Hit ratio this batch of unique IDs would see (no side effects)."""
        unique = np.unique(np.asarray(ids).ravel())
        if unique.size == 0:
            return 0.0
        if self._pin_all:
            return 1.0
        hits = int(np.isin(unique.astype(np.int64, copy=False),
                           self._hot_arr).sum())
        return hits / unique.size

    def _maybe_pin_all(self) -> None:
        """Pin everything hot if capacity is *far beyond* the table.

        Algorithm 1's escape hatch only applies when Hot-storage
        comfortably exceeds the observed table (2x headroom here),
        because new IDs keep arriving in streaming workloads.
        """
        if self.counter.distinct_ids() * 2 <= self.hot_capacity_rows:
            self._pin_all = True

    def _flush(self) -> None:
        """Reload Hot-storage with the current top-k (L24-25)."""
        if self._pin_all:
            if self.counter.distinct_ids() <= self.hot_capacity_rows:
                return
            # The table outgrew Hot-storage after all: fall back to
            # top-k caching.
            self._pin_all = False
        self._hot_ids = set(self.counter.top_k(self.hot_capacity_rows))
        self._hot_arr = np.fromiter(self._hot_ids, dtype=np.int64,
                                    count=len(self._hot_ids))
        self._hot_arr.sort()
        self.stats.flushes += 1
        self.flush_history.append(self._iteration)
