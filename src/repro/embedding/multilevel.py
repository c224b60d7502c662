"""Multi-level embedding cache: the paper's HybridHash extension.

SS III-D notes that ``HybridHash`` "can be extended to a multiple-level
cache system, including devices like Intel's persistent memory and
SSD".  :class:`MultiLevelCache` implements that extension: an ordered
hierarchy of tiers (e.g. HBM -> DRAM -> PMEM -> SSD), each a capacity-
bounded scratchpad over the next, with the bottom tier authoritative.
Frequency statistics drive periodic tier reassignment exactly like
Algorithm 1's flush: the hottest rows float to the fastest tier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.embedding.counter import FrequencyCounter
from repro.embedding.table import EmbeddingTable


@dataclass(frozen=True)
class CacheTier:
    """One storage tier of the hierarchy.

    :param capacity_bytes: how many embedding bytes the tier may pin.
    :param access_seconds_per_byte: modeled bandwidth cost; used by
        the cost estimates in :meth:`MultiLevelCache.expected_access_cost`.
    :param access_latency: fixed per-row access latency in seconds
        (e.g. a PCIe round trip for DRAM reached from the GPU); this is
        what makes tier placement move *tail* latency in the serving
        path, where rows are small and bandwidth terms vanish.
    """

    name: str
    capacity_bytes: float
    access_seconds_per_byte: float
    access_latency: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0")
        if self.access_seconds_per_byte < 0:
            raise ValueError("access cost must be >= 0")
        if self.access_latency < 0:
            raise ValueError("access_latency must be >= 0")


#: A typical PICASSO-era hierarchy (per-byte costs ~ 1/bandwidth).
DEFAULT_TIERS = (
    CacheTier("hbm", capacity_bytes=1 << 30,
              access_seconds_per_byte=1.0 / 800e9),
    CacheTier("dram", capacity_bytes=64 << 30,
              access_seconds_per_byte=1.0 / 80e9),
    CacheTier("pmem", capacity_bytes=256 << 30,
              access_seconds_per_byte=1.0 / 8e9),
    CacheTier("ssd", capacity_bytes=float("inf"),
              access_seconds_per_byte=1.0 / 2e9),
)


@dataclass
class TierStats:
    """Per-tier hit statistics."""

    hits: int = 0

    def as_dict(self) -> dict:
        """Plain-dict snapshot for metrics export and benchmarks."""
        return {"hits": self.hits}


class MultiLevelCache:
    """An N-tier frequency-managed embedding cache.

    The bottom tier is authoritative (it can always serve any ID); the
    tiers above pin the hottest rows that fit.  ``lookup`` returns the
    embeddings and records which tier served each unique ID; every
    ``flush_iters`` iterations the placement is rebuilt from the
    frequency counter (hottest rows to the fastest tier, next-hottest
    to the second tier, and so on).
    """

    def __init__(self, table: EmbeddingTable, tiers: tuple = DEFAULT_TIERS,
                 warmup_iters: int = 50, flush_iters: int = 50):
        if not tiers:
            raise ValueError("at least one tier is required")
        if any(tiers[i].access_seconds_per_byte
               > tiers[i + 1].access_seconds_per_byte
               for i in range(len(tiers) - 1)):
            raise ValueError("tiers must be ordered fastest first")
        if warmup_iters < 0 or flush_iters < 1:
            raise ValueError("invalid warmup/flush configuration")
        self.table = table
        self.tiers = tuple(tiers)
        self.warmup_iters = warmup_iters
        self.flush_iters = flush_iters
        self.counter = FrequencyCounter()
        self.stats = {tier.name: TierStats() for tier in tiers}
        #: per post-warm-up iteration fast-tier hit ratio (cache-health
        #: monitor signal; entry k is iteration warmup_iters + k).
        self.hit_history: list = []
        #: iteration counts at which placement was rebuilt.
        self.flush_history: list = []
        self._placement: dict = {}  # id -> tier index
        self._iteration = 0

    @property
    def iteration(self) -> int:
        """Iterations processed."""
        return self._iteration

    def tier_of(self, key: int) -> str:
        """Name of the tier currently holding ``key``."""
        index = self._placement.get(int(key), len(self.tiers) - 1)
        return self.tiers[index].name

    def rows_per_tier(self) -> dict:
        """How many rows each tier currently pins (bottom excluded)."""
        counts = {tier.name: 0 for tier in self.tiers}
        for index in self._placement.values():
            counts[self.tiers[index].name] += 1
        counts[self.tiers[-1].name] = max(
            0, self.counter.distinct_ids()
            - sum(counts[tier.name] for tier in self.tiers[:-1]))
        return counts

    def lookup(self, ids: np.ndarray) -> np.ndarray:
        """Fetch embeddings, tracking per-tier hits; returns rows."""
        ids = np.asarray(ids).ravel()
        self.counter.observe(ids)
        if self._iteration >= self.warmup_iters:
            unique = np.unique(ids)
            fast_hits = 0
            for raw in unique:
                index = self._placement.get(int(raw),
                                            len(self.tiers) - 1)
                self.stats[self.tiers[index].name].hits += 1
                if index == 0:
                    fast_hits += 1
            self.hit_history.append(
                fast_hits / unique.size if unique.size else 0.0)
        result = self.table.lookup(ids)
        self._iteration += 1
        if (self._iteration >= self.warmup_iters
                and self._iteration % self.flush_iters == 0):
            self._rebuild_placement()
            self.flush_history.append(self._iteration)
        return result

    def update(self, ids: np.ndarray, deltas: np.ndarray) -> None:
        """Gradient updates go to the authoritative table."""
        self.table.scatter_add(ids, deltas)

    def expected_access_cost(self, ids: np.ndarray) -> float:
        """Modeled seconds to fetch a batch given current placement."""
        ids = np.unique(np.asarray(ids).ravel())
        row_bytes = self.table.dim * 4
        cost = 0.0
        for raw in ids:
            index = self._placement.get(int(raw), len(self.tiers) - 1)
            tier = self.tiers[index]
            cost += tier.access_latency \
                + row_bytes * tier.access_seconds_per_byte
        return cost

    def _rebuild_placement(self) -> None:
        """Float the hottest rows to the fastest tiers (flush step)."""
        row_bytes = self.table.dim * 4
        placement: dict = {}
        ordered = self.counter.top_k(self.counter.distinct_ids())
        cursor = 0
        for index, tier in enumerate(self.tiers[:-1]):
            # An unbounded non-bottom tier pins everything that's left
            # (float('inf') // row_bytes is nan, so clamp explicitly).
            if tier.capacity_bytes == float("inf"):
                tier_rows = len(ordered) - cursor
            else:
                tier_rows = int(tier.capacity_bytes // row_bytes)
            for key in ordered[cursor:cursor + tier_rows]:
                placement[key] = index
            cursor += tier_rows
            if cursor >= len(ordered):
                break
        self._placement = placement

    def hit_fractions(self) -> dict:
        """Fraction of post-warm-up unique lookups served per tier."""
        total = sum(stats.hits for stats in self.stats.values())
        if total == 0:
            return {tier.name: 0.0 for tier in self.tiers}
        return {name: stats.hits / total
                for name, stats in self.stats.items()}

    def stats_as_dict(self) -> dict:
        """Uniform cache-state export (mirrors ``CacheStats.as_dict``).

        Returns per-tier hit counts and fractions plus the fast-tier
        hit ratio, which is what the serving metrics report.
        """
        fractions = self.hit_fractions()
        return {
            "tiers": {name: stats.as_dict()
                      for name, stats in self.stats.items()},
            "hit_fractions": fractions,
            "hit_ratio": fractions[self.tiers[0].name],
            "queries": sum(stats.hits for stats in self.stats.values()),
        }
