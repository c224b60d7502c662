"""Shard-placement study (ROADMAP extension, not a paper table): how
much skew-aware placement rebalances the embedding AllToAllv.

PICASSO's hybrid strategy makes embeddings model-parallel, so the
slowest shard gates every exchange; under the Zipf skew of Fig. 3,
hash sharding concentrates the hottest IDs on a few workers.  Each
cell of the skew x workers sweep samples the *same* seeded bounded-
Zipf traffic per worker and prices it twice through
:func:`~repro.embedding.placement.compare_policies` — once under plain
hash ownership, once under the
:class:`~repro.embedding.placement.ShardPlanner`'s replicate/dedicate/
LPT placement — reporting the measured max/mean per-worker exchange
bytes of both and the planner's cut:

* ``hash_ratio`` grows with skew (hotter heads, fewer owners) and
  with worker count (more shards for the same head to unbalance);
* ``planned_ratio`` stays near 1.0: replication removes the head from
  the exchange entirely and LPT balances what remains;
* ``ratio_cut_pct`` is the headline number the ``shards`` bench gates
  (>= 25% on the Zipf(1.2) x 8-worker cell).

The table is a pure function of the seed.
"""

from __future__ import annotations

import numpy as np

from repro.data.spec import FieldSpec
from repro.data.synthetic import BoundedZipf
from repro.embedding.placement import ShardPlanner, compare_policies
from repro.experiments.common import Check

#: Zipf exponents swept (Fig. 3's production skew sits near 1.2).
SKEWS = (1.05, 1.2, 1.4)

#: Worker counts swept (the acceptance cell is 8).
WORKER_COUNTS = (4, 8, 16)


def placement_cell(vocab_size: int, exponent: float, num_fields: int,
                   dim: int, per_worker_batch: int, workers: int,
                   seed: int) -> dict:
    """One cell: seeded Zipf traffic priced under both policies.

    Returns the raw :func:`~repro.embedding.placement.compare_policies`
    result (``"hash"``/``"planned"`` loads and their ``"plans"``).
    Every cell draws from a fresh ``default_rng(seed)``: field by
    field, one ``per_worker_batch`` sample per worker.
    """
    specs = [FieldSpec(name=f"f{index}", vocab_size=vocab_size,
                       embedding_dim=dim, zipf_exponent=exponent)
             for index in range(num_fields)]
    profiles = ShardPlanner(workers).profiles_for_fields(
        specs, per_worker_batch)
    sampler = BoundedZipf(vocab_size=vocab_size, exponent=exponent)
    rng = np.random.default_rng(seed)
    batches = {
        spec.name: [sampler.sample(per_worker_batch, rng)
                    for _worker in range(workers)]
        for spec in specs
    }
    return compare_policies(profiles, batches, workers)


def run_shard_placement(vocab_size: int = 50_000, num_fields: int = 4,
                        dim: int = 16, per_worker_batch: int = 4_096,
                        seed: int = 0, skews=SKEWS,
                        worker_counts=WORKER_COUNTS) -> list:
    """The skew x workers x policy table; one row per swept cell."""
    rows = []
    for skew in skews:
        for workers in worker_counts:
            result = placement_cell(vocab_size, skew, num_fields, dim,
                                    per_worker_batch, workers, seed)
            hash_load = result["hash"]
            planned_load = result["planned"]
            planned_plan = result["plans"]["planned"]
            hash_ratio = hash_load.max_mean_ratio
            planned_ratio = planned_load.max_mean_ratio
            rows.append({
                "skew": f"{skew:g}",
                "workers": workers,
                "hash_ratio": round(hash_ratio, 3),
                "planned_ratio": round(planned_ratio, 3),
                "ratio_cut_pct": round(
                    (1.0 - planned_ratio / hash_ratio) * 100, 1),
                "max_bytes_cut_pct": round(
                    (1.0 - planned_load.max_bytes
                     / hash_load.max_bytes) * 100, 1)
                if hash_load.max_bytes > 0 else 0.0,
                "replicated_rows": planned_plan.replicated_rows,
            })
    return rows


def claims(rows: list) -> list:
    """The study's claims, checked on :func:`run_shard_placement` rows."""
    cells = {(row["skew"], row["workers"]): row for row in rows}
    hash_ratios = [[cells[(f"{skew:g}", workers)]["hash_ratio"]
                    for workers in WORKER_COUNTS] for skew in SKEWS]
    return [
        # The same hot head spreads over more shards, so the gating
        # shard stands out more.
        Check("hash imbalance grows with worker count at every skew",
              all(ratios == sorted(ratios) for ratios in hash_ratios)),
        Check("planned placement holds every cell near balance "
              "(max/mean <= 1.1)",
              all(row["planned_ratio"] <= 1.1 for row in rows)),
        # Also gated by the committed BENCH_shards.json baseline.
        Check("the Zipf(1.2) x 8-worker cell cuts the max/mean exchange "
              "ratio by >= 25%",
              cells[("1.2", 8)]["ratio_cut_pct"] >= 25.0),
        Check("replication only removes exchange traffic: planned max "
              "bytes drop in every cell",
              all(row["max_bytes_cut_pct"] > 0 for row in rows)),
    ]
