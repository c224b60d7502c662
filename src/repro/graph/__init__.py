"""Computation graphs: the operator DAG a training iteration executes.

The operator vocabulary follows the paper's low-level projection
(Fig. 4): the embedding layer expands into Unique / Partition / Gather /
Shuffle / Stitch / SegmentReduction per feature field, the interaction
layer into per-module compute kernels, the MLP into per-layer kernels,
and the backward pass mirrors the forward.  PICASSO's packing rewrites
operate on these graphs.
"""

from repro.graph.op import Op, OpKind, efficiency_capped_rate
from repro.graph.graph import Graph
from repro.graph.builder import (
    CostModel,
    EmbeddingGroup,
    ExecutionPlan,
    IterationGraphBuilder,
    WorkloadStats,
    groups_per_field,
)

__all__ = [
    "Op",
    "OpKind",
    "efficiency_capped_rate",
    "Graph",
    "CostModel",
    "EmbeddingGroup",
    "ExecutionPlan",
    "IterationGraphBuilder",
    "WorkloadStats",
    "groups_per_field",
]
