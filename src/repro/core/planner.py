"""The PICASSO optimization planner.

Turns (model, cluster, batch size, :class:`PicassoConfig`) into an
:class:`~repro.graph.builder.ExecutionPlan`: hybrid MP/DP strategy,
packed embedding groups (Eq. 1), interleave sets (Eq. 3), micro-batches
(Eq. 2), and the planned cache hit ratio.  The ablation variants of
Tab. IV fall out of the config toggles.
"""

from __future__ import annotations

from repro.core.caching import expected_hit_ratio
from repro.core.config import PicassoConfig
from repro.core.interleaving import (
    assign_interleave_sets,
    estimate_interleave_sets,
    estimate_micro_batches,
)
from repro.core.packing import pack_by_dimension
from repro.embedding.placement import predict_imbalance
from repro.graph.builder import (
    ExecutionPlan,
    WorkloadStats,
    groups_per_field,
)
from repro.hardware.topology import ClusterSpec
from repro.memo import Memo
from repro.models.base import ModelSpec


#: Process-wide memos for the planner's two sampling-backed leaves.
#: Both are pure, seeded functions of frozen (hashable) specs, and both
#: are expensive enough to dominate repeated plan builds — planners are
#: constructed per run, so per-instance caching would never hit.
_IMBALANCE = Memo("imbalance", 1024)
_HIT_RATIO = Memo("hit_ratio", 1024)

#: Whole-plan memo: ``(config, model, cluster, batch, seed)`` ->
#: :class:`ExecutionPlan`.  Planning is deterministic, and a plan is
#: never mutated once :meth:`PicassoPlanner.plan` returns (the
#: compile memo in :mod:`repro.core.executor` relies on the same
#: contract), so benchmark/tuning loops re-requesting the same workload
#: share one plan object.
_PLANS = Memo("plan", 64)


class PicassoPlanner:
    """Plans PICASSO executions; one planner may serve many models."""

    def __init__(self, config: PicassoConfig | None = None,
                 stats: WorkloadStats | None = None):
        self.config = config or PicassoConfig()
        self.stats = stats or WorkloadStats()

    def plan(self, model: ModelSpec, cluster: ClusterSpec,
             batch_size: int) -> ExecutionPlan:
        """Produce the optimized execution plan for one workload.

        Planning is deterministic, so results are memoized process-wide
        (configs are frozen dataclasses, so the config itself is the
        key).  The returned plan is shared: treat it as immutable, as
        the executor's compile memo does.
        """
        key = (self.config, model, cluster, batch_size,
               self.stats._seed)
        return _PLANS.get(key, self._plan_uncached, model, cluster,
                          batch_size)

    def _plan_uncached(self, model: ModelSpec, cluster: ClusterSpec,
                       batch_size: int) -> ExecutionPlan:
        config = self.config
        dataset = model.dataset

        if config.enable_packing:
            groups = pack_by_dimension(dataset, batch_size, self.stats,
                                       config.excluded_fields)
        else:
            groups = groups_per_field(dataset)

        plan = ExecutionPlan(
            model=model,
            cluster=cluster,
            batch_size=batch_size,
            strategy="hybrid",
            groups=groups,
            fuse_kernels=config.enable_packing,
            fine_grained_deps=config.enable_interleaving,
            io_overlap=True,
            # HybridBackend's columnar input pipeline ships roughly
            # half the bytes of the baselines' padded records.
            io_compression=0.5,
            cost=config.cost,
            prefetch_lookahead=config.prefetch_lookahead,
            prefetch_hot_threshold=config.prefetch_hot_threshold,
            prefetch_inflight_bytes=config.prefetch_inflight_bytes,
            prefetch_policy=config.prefetch_policy,
        )

        if config.enable_interleaving:
            sets = config.interleave_sets or estimate_interleave_sets(
                groups, batch_size, self.stats)
            plan.groups = assign_interleave_sets(
                groups, sets, batch_size, self.stats)
            plan.interleave_sets = sets
            # Eq. 2 sizes micro-batches against device memory; even when
            # everything fits, a few slices keep the pipeline full by
            # overlapping each slice's collectives with the next slice's
            # compute (Fig. 14's "sufficient input data" condition).
            micro = config.micro_batches or max(4, estimate_micro_batches(
                plan, config.device_memory_budget))
            plan.micro_batches = micro
            plan.micro_batch_scope = config.micro_batch_scope

        if config.shard_policy == "planned" and plan.uses_alltoall \
                and cluster.num_workers > 1:
            # Skew-aware placement rebalances the exchange: price the
            # AllToAllv at the plan's predicted max/mean shard ratio
            # instead of the generic straggler factor.
            key = (dataset.fields, cluster.num_workers, batch_size)
            plan.shard_imbalance = _IMBALANCE.get(key, predict_imbalance,
                                                  *key)

        if config.enable_caching:
            key = (dataset, config.hot_storage_bytes, batch_size)
            hit_ratio = _HIT_RATIO.get(key, expected_hit_ratio,
                                       *key).hit_ratio
            # The live hot set trails the ideal top-k between flushes
            # (Algorithm 1 refreshes every flush_iters), so the achieved
            # hit ratio is discounted against the oracle plan.
            plan.cache_hit_ratio = hit_ratio * 0.65

        return plan
