"""Model-parallel sharding of embedding tables across executors.

The hybrid strategy partitions every embedding table across all
PICASSO-Executors; the ``Partition`` operator routes each unique ID to
its owning shard and ``Shuffle`` exchanges the remote ones.
"""

from __future__ import annotations

import numpy as np


def shard_for_id(ids: np.ndarray, num_shards: int) -> np.ndarray:
    """Owning shard of each ID (stable modulo hashing)."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    ids = np.asarray(ids, dtype=np.int64).ravel()
    # Multiplicative mixing avoids pathological striding in ID space.
    mixed = (ids * np.int64(2654435761)) & np.int64(0x7FFFFFFFFFFFFFFF)
    return (mixed % num_shards).astype(np.int64)
