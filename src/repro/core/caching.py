"""Cache planning: sizing Hot-storage and predicting hit ratios.

``HybridHash`` itself lives in :mod:`repro.embedding.hybrid_hash`; this
module is the *planner* side: given a Hot-storage budget, how should
rows be apportioned across tables, and what per-batch unique-ID hit
ratio should training expect (the metric Tab. VI reports)?
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.spec import DatasetSpec, FieldSpec
from repro.data.synthetic import BoundedZipf

_FLOAT_BYTES = 4


@dataclass(frozen=True)
class CachePlan:
    """A Hot-storage layout: rows reserved per field.

    :param hit_ratio: predicted fraction of per-batch *unique* IDs
        served from Hot-storage.
    :param hot_bytes_used: bytes the plan actually pins hot.
    """

    rows_per_field: dict
    hit_ratio: float
    hot_bytes_used: float


def _batch_unique_hit_fraction(field: FieldSpec, hot_rows: int,
                               batch_size: int, rng,
                               rounds: int = 2) -> tuple:
    """(unique IDs per batch, unique hits per batch) for one field.

    With ideal frequency statistics the hot set is exactly the top
    ``hot_rows`` Zipf ranks, so a unique ID hits iff its rank is below
    ``hot_rows``.  Measured by sampling, matching how the paper reports
    per-batch unique-ID hit ratios.
    """
    ids_per_batch = min(batch_size * field.seq_length, 100_000)
    if ids_per_batch == 0:
        return 0.0, 0.0
    zipf = BoundedZipf(field.vocab_size, field.zipf_exponent)
    uniques = 0.0
    hits = 0.0
    first = np.ones(ids_per_batch, dtype=bool)
    for _round in range(rounds):
        ranks = np.sort(zipf.sample(ids_per_batch, rng))
        np.not_equal(ranks[1:], ranks[:-1], out=first[1:])
        uniques += int(np.count_nonzero(first))
        hot = int(np.searchsorted(ranks, hot_rows))
        hits += float(np.count_nonzero(first[:hot]))
    scale = (batch_size * field.seq_length) / ids_per_batch
    return uniques / rounds * scale, hits / rounds * scale


def expected_hit_ratio(dataset: DatasetSpec, hot_bytes: float,
                       batch_size: int, seed: int = 11) -> CachePlan:
    """Plan Hot-storage across a dataset's tables and predict hits.

    Rows are allocated to fields proportionally to their share of the
    batch's ID traffic (weighted by bytes per row), which approximates
    the global top-k that ``HybridHash``'s frequency counter converges
    to.  Returns the plan with its predicted per-batch unique-ID hit
    ratio.
    """
    if hot_bytes < 0:
        raise ValueError("hot_bytes must be >= 0")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    rng = np.random.default_rng(seed)
    traffic = {
        spec.name: batch_size * spec.seq_length * spec.embedding_dim
        for spec in dataset.fields
    }
    total_traffic = sum(traffic.values()) or 1.0

    rows_per_field = {}
    used = 0.0
    for spec in dataset.fields:
        budget = hot_bytes * traffic[spec.name] / total_traffic
        rows = int(budget // (spec.embedding_dim * _FLOAT_BYTES))
        rows = min(rows, spec.vocab_size)
        rows_per_field[spec.name] = rows
        used += rows * spec.embedding_dim * _FLOAT_BYTES

    total_unique = 0.0
    total_hits = 0.0
    measured: dict = {}
    for spec in dataset.fields:
        # Cache by distribution so duplicated fields sample once.
        key = (spec.vocab_size, spec.zipf_exponent, spec.seq_length,
               rows_per_field[spec.name])
        if key not in measured:
            measured[key] = _batch_unique_hit_fraction(
                spec, rows_per_field[spec.name], batch_size, rng)
        uniques, hits = measured[key]
        total_unique += uniques
        total_hits += hits
    ratio = (total_hits / total_unique) if total_unique else 0.0
    return CachePlan(rows_per_field=rows_per_field, hit_ratio=ratio,
                     hot_bytes_used=used)


def batch_size_penalty(hot_bytes: float, device_memory_budget: float) -> float:
    """Fraction of the batch the hot cache displaces (Tab. VI effect).

    An oversized Hot-storage steals activation memory, forcing a
    smaller batch; the paper observes throughput *dropping* beyond 2 GB
    for this reason.  Returns the usable batch fraction in (0, 1].
    """
    if device_memory_budget <= 0:
        raise ValueError("device_memory_budget must be > 0")
    displaced = min(hot_bytes, device_memory_budget * 0.9)
    return max(0.1, 1.0 - displaced / device_memory_budget)
