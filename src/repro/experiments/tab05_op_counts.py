"""Tab. V: operation counts, baseline vs PICASSO.

D-Packing + K-Packing collapse the fragmentary per-field operations:
the paper reports W&D 100,039 -> 14,882 (14.9%), CAN 381,364 -> 67,985
(17.8%), MMoE 300,524 -> 75,217 (25.0%); packed embedding counts drop
from 204/364/94 to 16/19/11.
"""

from __future__ import annotations

from repro.baselines import framework_by_name
from repro.core import PicassoExecutor
from repro.experiments.common import (
    PRODUCTION_BATCH_SIZES,
    Check,
    production_model,
)
from repro.graph.builder import IterationGraphBuilder
from repro.hardware import eflops_cluster


def run_op_counts(num_nodes: int = 16) -> list:
    """Framework-op counts + packed embedding counts (no simulation)."""
    cluster = eflops_cluster(num_nodes)
    rows = []
    for model_name in ("W&D", "CAN", "MMoE"):
        model, dataset = production_model(model_name)
        batch = PRODUCTION_BATCH_SIZES[model_name]

        baseline_plan = framework_by_name("TF-PS").plan(
            model, cluster, batch)
        baseline_graph = IterationGraphBuilder(baseline_plan).build(1)

        executor = PicassoExecutor(model, cluster)
        picasso_plan = executor.plan(batch)
        picasso_graph = IterationGraphBuilder(picasso_plan).build(1)

        baseline_ops = baseline_graph.total_micro_ops
        picasso_ops = picasso_graph.total_micro_ops
        rows.append({
            "model": model_name,
            "baseline_ops": baseline_ops,
            "picasso_ops": picasso_ops,
            "ops_pct": round(picasso_ops / baseline_ops * 100, 1),
            "baseline_packed_emb": dataset.num_fields,
            "picasso_packed_emb": len(picasso_plan.groups),
        })
    return rows


def paper_reference() -> list:
    """Tab. V as published."""
    return [
        {"model": "W&D", "baseline_ops": 100_039, "picasso_ops": 14_882,
         "ops_pct": 14.9, "baseline_packed_emb": 204,
         "picasso_packed_emb": 16},
        {"model": "CAN", "baseline_ops": 381_364, "picasso_ops": 67_985,
         "ops_pct": 17.8, "baseline_packed_emb": 364,
         "picasso_packed_emb": 19},
        {"model": "MMoE", "baseline_ops": 300_524, "picasso_ops": 75_217,
         "ops_pct": 25.0, "baseline_packed_emb": 94,
         "picasso_packed_emb": 11},
    ]


def claims(rows: list) -> list:
    """Tab. V's claims, checked on :func:`run_op_counts` rows."""
    by_model = {row["model"]: row for row in rows}
    return [
        Check("packing reduces framework operations on every model",
              all(row["picasso_ops"] < row["baseline_ops"]
                  for row in rows)),
        # Paper: 204/364/94 per-field embeddings pack into 16/19/11.
        Check("packing collapses per-field embeddings into fewer than a "
              "quarter as many packed embeddings",
              all(row["picasso_packed_emb"] < row["baseline_packed_emb"] / 4
                  for row in rows)),
        Check("every model keeps >= 2 packed embeddings",
              all(row["picasso_packed_emb"] >= 2 for row in rows)),
        Check("W&D keeps < 35% of its operations (paper: 14.9%)",
              by_model["W&D"]["ops_pct"] < 35.0),
    ]
