"""Interleaving: D-Interleaving (Eq. 2) and K-Interleaving (Eq. 3).

D-Interleaving slices a large batch into micro-batches from a chosen
layer so peak activation memory amortizes (Fig. 8a/b); Eq. 2 sizes the
micro-batch as ``min_op(RBound_op / RInstance_op)`` — the tightest
resource bound divided by per-instance cost, which for the MLP tail is
device memory over activation bytes per instance.

K-Interleaving spreads packed embedding groups over ordered sets with
control dependencies so that, at any time, one set communicates while
others compute; Eq. 3 caps each set's parameter volume at
``min_op(RBound_op / RParam_op)``.
"""

from __future__ import annotations

import math

from repro.graph.builder import (
    EmbeddingGroup,
    ExecutionPlan,
    IterationGraphBuilder,
    WorkloadStats,
)
from repro.core.packing import calc_vparam


def estimate_micro_batches(plan: ExecutionPlan,
                           device_memory_budget: float) -> int:
    """Eq. 2: micro-batch count that fits the activation footprint.

    ``BS_micro = min_op(RBound_op / RInstance_op)``; with the dominant
    bound being device memory, ``RInstance`` is the per-instance
    activation footprint measured from warm-up (here: computed by the
    builder's footprint model).  Returns how many slices the plan's
    batch needs, clamped to [1, 8] — beyond that the extra launch
    overhead outweighs the pipeline benefit (Fig. 14).
    """
    if device_memory_budget <= 0:
        raise ValueError("device_memory_budget must be > 0")
    probe = IterationGraphBuilder(
        ExecutionPlan(model=plan.model, cluster=plan.cluster,
                      batch_size=plan.batch_size, strategy=plan.strategy,
                      groups=plan.groups, micro_batches=1,
                      cost=plan.cost))
    per_instance = probe.activation_bytes() / plan.batch_size
    if per_instance <= 0:
        return 1
    bs_micro = device_memory_budget / per_instance
    if bs_micro >= plan.batch_size:
        slices = 1
    else:
        slices = math.ceil(plan.batch_size / max(1.0, bs_micro))
    return max(1, min(8, slices))


def estimate_interleave_sets(groups: list, batch_size: int,
                             stats: WorkloadStats | None = None,
                             capacity: float | None = None) -> int:
    """Number of K-Interleaving sets Eq. 3 implies for these groups."""
    stats = stats or WorkloadStats()
    eligible = [group for group in groups if not group.excluded]
    if len(eligible) <= 1:
        return 1
    total = sum(calc_vparam(list(group.fields), batch_size, stats)
                * group.shard_fraction for group in eligible)
    if capacity is None:
        # Default production heuristic: pipeline depth grows with the
        # number of packed embeddings, saturating near the paper's
        # sweet spot of 3-7 (Fig. 14).
        return max(1, min(7, round(math.sqrt(len(eligible)))))
    if capacity <= 0:
        raise ValueError("capacity must be > 0")
    return max(1, min(len(eligible), math.ceil(total / capacity)))


def assign_interleave_sets(groups: list, num_sets: int, batch_size: int,
                           stats: WorkloadStats | None = None) -> list:
    """Balance groups across ``num_sets`` sets by parameter volume.

    Greedy heaviest-first assignment onto the lightest set; preset-
    excluded groups keep set 0 but are skipped by the builder's
    ordering edges.  Returns new :class:`EmbeddingGroup` instances.
    """
    if num_sets < 1:
        raise ValueError("num_sets must be >= 1")
    stats = stats or WorkloadStats()
    eligible = [group for group in groups if not group.excluded]
    excluded = [group for group in groups if group.excluded]
    weights = {
        group.name: calc_vparam(list(group.fields), batch_size, stats)
        * group.shard_fraction
        for group in eligible
    }
    loads = [0.0] * num_sets
    assigned = []
    for group in sorted(eligible, key=lambda item: -weights[item.name]):
        index = loads.index(min(loads))
        loads[index] += weights[group.name]
        assigned.append(EmbeddingGroup(
            name=group.name, fields=group.fields,
            shard_fraction=group.shard_fraction,
            interleave_set=index, excluded=False))
    assigned.extend(excluded)
    return assigned
