"""PICASSO core: packing, interleaving, and caching optimization.

The public entry point is :class:`~repro.core.executor.PicassoExecutor`,
which plans and executes a WDL training workload with the paper's three
optimizations (SS III-B/C/D), and
:class:`~repro.core.config.PicassoConfig`, whose toggles drive the
ablation study (Tab. IV).
"""

from repro.core.config import PicassoConfig
from repro.core.packing import (
    calc_vparam,
    pack_by_dimension,
    packed_embedding_count,
)
from repro.core.interleaving import (
    assign_interleave_sets,
    estimate_interleave_sets,
    estimate_micro_batches,
)
from repro.core.caching import CachePlan, expected_hit_ratio
from repro.core.planner import PicassoPlanner
from repro.core.executor import PicassoExecutor, RunReport, simulate_plan

__all__ = [
    "PicassoConfig",
    "calc_vparam",
    "pack_by_dimension",
    "packed_embedding_count",
    "assign_interleave_sets",
    "estimate_interleave_sets",
    "estimate_micro_batches",
    "CachePlan",
    "expected_hit_ratio",
    "PicassoPlanner",
    "PicassoExecutor",
    "RunReport",
    "simulate_plan",
]
