"""Tab. VII: twelve AUC-prediction models, XDL vs PICASSO.

All models run over the Product-2 dataset (slightly modified to fit,
as in the paper).  PICASSO's D-Interleaving lets every model train with
a k-times larger effective batch (the "20K -> 36K (18K x 2)" notation),
raising GPU SM utilization by +64..341% and IPS by +50..215%.
"""

from __future__ import annotations

from repro.baselines import framework_by_name
from repro.core import PicassoConfig, PicassoExecutor
from repro.data import product2
from repro.experiments.common import Check
from repro.hardware import eflops_cluster
from repro.models import MODEL_BUILDERS

#: (XDL batch, PICASSO micro-batch count) per model, following Tab. VII
#: ("20K -> 36K (20K x 2)" means XDL ran 20K and PICASSO 2 micro-batches).
TAB7_BATCHES = {
    "LR": (20_000, 2),
    "W&D": (18_000, 2),
    "TwoTowerDNN": (12_000, 3),
    "DLRM": (10_000, 3),
    "DCN": (12_000, 3),
    "xDeepFM": (5_000, 4),
    "ATBRG": (3_000, 2),
    "DIN": (15_000, 3),
    "DIEN": (15_000, 3),
    "DSIN": (9_000, 3),
    "CAN": (12_000, 4),
    "STAR": (2_000, 4),
}


def run_twelve_models(iterations: int = 2, num_nodes: int = 16,
                      scale: float = 1.0,
                      models: tuple | None = None) -> list:
    """XDL-vs-PICASSO SM utilization and IPS for the Tab. VII zoo."""
    dataset = product2(scale)
    cluster = eflops_cluster(num_nodes)
    rows = []
    names = models or tuple(TAB7_BATCHES)
    for name in names:
        base_batch, micro = TAB7_BATCHES[name]
        model = MODEL_BUILDERS[name](dataset)
        xdl = framework_by_name("XDL").run(model, cluster, base_batch,
                                           iterations=iterations)
        config = PicassoConfig(micro_batches=micro)
        picasso = PicassoExecutor(model, cluster, config).run(
            base_batch * micro, iterations=iterations)
        rows.append({
            "model": name,
            "xdl_batch": base_batch,
            "picasso_batch": base_batch * micro,
            "xdl_sm_pct": round(xdl.sm_utilization * 100),
            "picasso_sm_pct": round(picasso.sm_utilization * 100),
            "sm_gain_pct": round(
                (picasso.sm_utilization / max(1e-9, xdl.sm_utilization)
                 - 1) * 100),
            "xdl_ips": round(xdl.ips),
            "picasso_ips": round(picasso.ips),
            "ips_gain_pct": round((picasso.ips / xdl.ips - 1) * 100),
        })
    return rows


def paper_reference() -> list:
    """Tab. VII as published (SM util change, IPS change)."""
    return [
        {"model": "LR", "sm": "9 -> 22 (+144%)",
         "ips": "12.0K -> 25.9K (+115%)"},
        {"model": "W&D", "sm": "21 -> 35 (+67%)",
         "ips": "14.7K -> 22.2K (+50%)"},
        {"model": "TwoTowerDNN", "sm": "35 -> 97 (+177%)",
         "ips": "4.7K -> 12.1K (+160%)"},
        {"model": "DLRM", "sm": "38 -> 98 (+158%)",
         "ips": "3.8K -> 10.4K (+171%)"},
        {"model": "DCN", "sm": "56 -> 92 (+64%)",
         "ips": "9.0K -> 13.7K (+52%)"},
        {"model": "xDeepFM", "sm": "45 -> 98 (+117%)",
         "ips": "3.1K -> 5.9K (+89%)"},
        {"model": "ATBRG", "sm": "13 -> 26 (+100%)",
         "ips": "0.8K -> 1.4K (+82%)"},
        {"model": "DIN", "sm": "34 -> 80 (+135%)",
         "ips": "7.5K -> 16.0K (+113%)"},
        {"model": "DIEN", "sm": "29 -> 75 (+159%)",
         "ips": "7.3K -> 15.6K (+115%)"},
        {"model": "DSIN", "sm": "40 -> 93 (+133%)",
         "ips": "4.7K -> 9.8K (+111%)"},
        {"model": "CAN", "sm": "17 -> 75 (+341%)",
         "ips": "3.9K -> 12.1K (+210%)"},
        {"model": "STAR", "sm": "32 -> 98 (+206%)",
         "ips": "0.6K -> 2.0K (+215%)"},
    ]


def claims(rows: list) -> list:
    """Tab. VII's claims, checked on :func:`run_twelve_models` rows."""
    # PICASSO improves throughput and utilization across the zoo.
    return [
        Check(">= 10 models gain throughput under PICASSO",
              sum(row["ips_gain_pct"] > 0 for row in rows) >= 10),
        Check(">= 10 models gain SM utilization under PICASSO",
              sum(row["sm_gain_pct"] > 0 for row in rows) >= 10),
        Check("every model sustains a larger batch via D-Interleaving",
              all(row["picasso_batch"] > row["xdl_batch"]
                  for row in rows)),
    ]
