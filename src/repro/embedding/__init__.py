"""Embedding storage: dynamic hash tables, caching, and sharding.

Implements the paper's embedding substrate: hashmap-backed dynamic
embedding tables (industrial tables grow with new IDs), the
``HybridHash`` hot/cold cache of Algorithm 1, and the model-parallel
sharding used by the hybrid strategy.
"""

from repro.embedding.table import EmbeddingTable
from repro.embedding.counter import FrequencyCounter
from repro.embedding.hybrid_hash import CacheStats, HybridHash
from repro.embedding.sharding import shard_for_id
from repro.embedding.multilevel import CacheTier, MultiLevelCache
from repro.embedding.placement import (
    ExchangeLoad,
    FieldPlacement,
    LoadProfile,
    PlacementPlan,
    PlannerConfig,
    ShardPlanner,
    compare_policies,
    max_mean_ratio,
    measure_exchange,
    predict_imbalance,
)

__all__ = [
    "EmbeddingTable",
    "FrequencyCounter",
    "CacheStats",
    "HybridHash",
    "shard_for_id",
    "CacheTier",
    "MultiLevelCache",
    "ExchangeLoad",
    "FieldPlacement",
    "LoadProfile",
    "PlacementPlan",
    "PlannerConfig",
    "ShardPlanner",
    "compare_policies",
    "max_mean_ratio",
    "measure_exchange",
    "predict_imbalance",
]
