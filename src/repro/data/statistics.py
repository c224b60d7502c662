"""Distribution statistics over categorical-ID streams (Fig. 3).

The paper observes that, sorted by descending frequency, the top 20% of
IDs cover on average ~70% (and up to 99%) of the training data across
its five datasets, which motivates ``HybridHash``.  These helpers
compute the same coverage curves, both empirically from sampled IDs and
analytically from the bounded-Zipf model.
"""

from __future__ import annotations

import numpy as np

from repro.data.spec import DatasetSpec, FieldSpec
from repro.data.synthetic import BoundedZipf


def count_distinct(ids) -> int:
    """``len(np.unique(ids))`` for integer IDs, by sorting: numpy's
    hash-based ``unique`` is several times slower on large samples."""
    ordered = np.sort(np.asarray(ids), axis=None)
    if ordered.size == 0:
        return 0
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def coverage_curve(ids: np.ndarray, points: int = 100) -> tuple:
    """Empirical coverage curve of an ID sample.

    Returns ``(fraction_of_ids, fraction_of_data)``: sorting distinct
    IDs by descending frequency, what share of all occurrences do the
    top ``fraction_of_ids`` cover?
    """
    if ids.size == 0:
        return np.zeros(0), np.zeros(0)
    _unique, counts = np.unique(ids, return_counts=True)
    counts = np.sort(counts)[::-1]
    cumulative = np.cumsum(counts) / counts.sum()
    id_fracs = np.arange(1, len(counts) + 1) / len(counts)
    if len(counts) > points:
        pick = np.linspace(0, len(counts) - 1, points).astype(int)
        return id_fracs[pick], cumulative[pick]
    return id_fracs, cumulative


def coverage_of_top_fraction(ids: np.ndarray, fraction: float = 0.2) -> float:
    """Share of occurrences covered by the top ``fraction`` of IDs."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if ids.size == 0:
        return 0.0
    _unique, counts = np.unique(ids, return_counts=True)
    counts = np.sort(counts)[::-1]
    top = max(1, int(np.ceil(fraction * len(counts))))
    return float(counts[:top].sum() / counts.sum())


def analytic_coverage(field: FieldSpec, fraction: float = 0.2) -> float:
    """Model-implied coverage of the top ``fraction`` of the vocabulary.

    Uses the continuous Zipf CDF, so it reflects the *stationary*
    distribution rather than a finite sample.
    """
    zipf = BoundedZipf(field.vocab_size, field.zipf_exponent)
    top = max(1, int(fraction * field.vocab_size))
    s = zipf.exponent
    v = float(field.vocab_size)
    if abs(s - 1.0) < 1e-9:
        return float(np.log(top) / np.log(v)) if v > 1 else 1.0
    num = top ** (1.0 - s) - 1.0
    den = v ** (1.0 - s) - 1.0
    if den == 0:
        return 1.0
    return float(num / den)


def expected_unique_fraction(field: FieldSpec, batch_ids: int,
                             samples: int = 3, seed: int = 7) -> float:
    """Expected ``len(unique(ids)) / len(ids)`` for a batch of this field.

    Measured empirically by sampling; the ``Unique`` operator's output
    size (and hence memory/communication volume downstream of
    deduplication) is proportional to this.
    """
    if batch_ids <= 0:
        return 1.0
    rng = np.random.default_rng(seed)
    zipf = BoundedZipf(field.vocab_size, field.zipf_exponent)
    draw = min(batch_ids, 200_000)  # sampling cap; ratio is stable
    fractions = []
    for _round in range(samples):
        ids = zipf.sample(draw, rng)
        fractions.append(count_distinct(ids) / draw)
    return float(np.mean(fractions))


def dataset_coverage_summary(dataset: DatasetSpec,
                             fraction: float = 0.2) -> dict:
    """Per-field analytic coverage of the top ``fraction`` of IDs.

    Reproduces the Fig. 3 observation across a dataset's fields.
    """
    return {spec.name: analytic_coverage(spec, fraction)
            for spec in dataset.fields}
