"""Datasets: specifications, skewed synthetic generators, statistics.

The paper's five datasets (Tab. II) are reproduced as parametric
specifications; categorical-ID streams are sampled from bounded Zipf
distributions whose skew reproduces Fig. 3 (top 20% of IDs cover
~70-99% of the training data).  For accuracy experiments (Tab. III) a
labeled generator embeds a learnable logistic ground truth.
"""

from repro.data.spec import (
    DatasetSpec,
    FieldSpec,
    alibaba,
    criteo,
    product1,
    product2,
    product3,
    ALL_DATASETS,
)
from repro.data.synthetic import BoundedZipf, FieldSampler, sample_field_batch
from repro.data.loader import Batch, BatchIterator, batch_wire_bytes
from repro.data.labeled import LabeledBatchIterator
from repro.data.statistics import (
    count_distinct,
    coverage_curve,
    coverage_of_top_fraction,
    expected_unique_fraction,
)

__all__ = [
    "DatasetSpec",
    "FieldSpec",
    "alibaba",
    "criteo",
    "product1",
    "product2",
    "product3",
    "ALL_DATASETS",
    "BoundedZipf",
    "FieldSampler",
    "sample_field_batch",
    "Batch",
    "BatchIterator",
    "batch_wire_bytes",
    "LabeledBatchIterator",
    "count_distinct",
    "coverage_curve",
    "coverage_of_top_fraction",
    "expected_unique_fraction",
]
