"""Fig. 3: categorical-ID frequency distribution across datasets.

The paper samples five datasets and finds that, sorted by descending
frequency, the top 20% of IDs cover ~70% of the data on average and up
to 99% — the motivation for ``HybridHash``.
"""

from __future__ import annotations

import numpy as np

from repro.data import ALL_DATASETS
from repro.data.statistics import coverage_curve, coverage_of_top_fraction
from repro.data.synthetic import FieldSampler
from repro.experiments.common import Check


def run_id_distribution(sample_batches: int = 4, batch_size: int = 20_000,
                        scale: float = 0.05, seed: int = 3) -> list:
    """Top-20% coverage per dataset, measured from sampled ID streams."""
    rows = []
    for name, dataset_fn in ALL_DATASETS.items():
        dataset = dataset_fn(scale)
        coverages = []
        # Sample the heaviest-traffic fields to keep runtime bounded.
        fields = sorted(dataset.fields,
                        key=lambda spec: -spec.seq_length)[:6]
        for spec in fields:
            sampler = FieldSampler(spec, seed=seed)
            ids = np.concatenate([
                sampler.sample_batch(batch_size)
                for _round in range(sample_batches)
            ])
            coverages.append(coverage_of_top_fraction(ids, 0.2))
        rows.append({
            "dataset": name,
            "top20_coverage_pct": round(float(np.mean(coverages)) * 100, 1),
            "max_field_coverage_pct": round(max(coverages) * 100, 1),
        })
    return rows


def run_coverage_curve(dataset_name: str = "Criteo", scale: float = 0.05,
                       batch_size: int = 50_000, seed: int = 3) -> tuple:
    """Full coverage curve (id fraction, data fraction) for one dataset."""
    dataset = ALL_DATASETS[dataset_name](scale)
    spec = max(dataset.fields, key=lambda item: item.vocab_size)
    sampler = FieldSampler(spec, seed=seed)
    ids = np.concatenate([sampler.sample_batch(batch_size)
                          for _round in range(4)])
    return coverage_curve(ids)


def paper_reference() -> dict:
    """Fig. 3's quantitative claim."""
    return {
        "claim": ("top 20% of IDs cover 70% of training data on average "
                  "and up to 99%"),
        "mean_band": (55.0, 99.5),
    }


def claims(rows: list) -> list:
    """Fig. 3's claim, checked on :func:`run_id_distribution` rows."""
    low, high = paper_reference()["mean_band"]
    return [Check(f"top-20% ID coverage of every dataset lies in the "
                  f"paper's {low:g}-{high:g}% band",
                  all(low <= row["top20_coverage_pct"] <= high
                      for row in rows))]
