"""Fig. 13: production-model IPS — PS baseline vs PICASSO(Base) vs PICASSO.

On 16 EFLOPS nodes, the hybrid strategy alone (PICASSO(Base)) is
comparable to the tuned async-PS baseline; the software-system
optimizations then deliver ~4x on CAN and MMoE.
"""

from __future__ import annotations

from repro.experiments.common import (
    PRODUCTION_BATCH_SIZES,
    Check,
    production_model,
    run_framework,
)
from repro.hardware import eflops_cluster

SYSTEMS = ("TF-PS", "PICASSO(Base)", "PICASSO")


def run_production_ips(iterations: int = 3, num_nodes: int = 16) -> list:
    """IPS per (model, system) on the EFLOPS cluster."""
    cluster = eflops_cluster(num_nodes)
    rows = []
    for model_name in ("W&D", "CAN", "MMoE"):
        model, _dataset = production_model(model_name)
        batch = PRODUCTION_BATCH_SIZES[model_name]
        for system in SYSTEMS:
            report = run_framework(system, model, cluster, batch,
                                   iterations=iterations)
            rows.append({
                "model": model_name,
                "system": system,
                "ips": round(report.ips),
                "sm_util_pct": round(report.sm_utilization * 100, 1),
            })
    return rows


def accelerations(rows: list) -> list:
    """PICASSO acceleration over the PS baseline per model."""
    by_model: dict = {}
    for row in rows:
        by_model.setdefault(row["model"], {})[row["system"]] = row["ips"]
    return [
        {"model": model,
         "picasso_vs_ps": round(ips["PICASSO"] / ips["TF-PS"], 2)}
        for model, ips in by_model.items()
    ]


def paper_reference() -> dict:
    """Fig. 13's headline."""
    return {"claim": "~4x acceleration on CAN and MMoE over the PS "
                     "baseline; W&D improves more modestly"}


def claims(rows: list) -> list:
    """Fig. 13's claims, checked on :func:`run_production_ips` rows."""
    ips = {(row["model"], row["system"]): row["ips"] for row in rows}
    models = ("W&D", "CAN", "MMoE")
    gains = {row["model"]: row["picasso_vs_ps"]
             for row in accelerations(rows)}
    # Full PICASSO beats both the PS baseline and the bare hybrid
    # strategy: the gains come from the software optimizations.  CAN
    # and MMoE see the larger accelerations (paper: ~4x).
    return [
        Check("full PICASSO beats the PS baseline on every model",
              all(ips[(model, "PICASSO")] > ips[(model, "TF-PS")]
                  for model in models)),
        Check("full PICASSO beats the bare hybrid strategy "
              "PICASSO(Base) on every model",
              all(ips[(model, "PICASSO")] > ips[(model, "PICASSO(Base)")]
                  for model in models)),
        Check("CAN gains >= 1.5x over PS", gains["CAN"] >= 1.5),
        Check("MMoE gains >= 1.5x over PS", gains["MMoE"] >= 1.5),
    ]
