"""Tab. IX: production deployment summary, XDL vs PICASSO.

Over hundreds of daily workloads (Jun-Nov 2021) the paper reports an
average task walltime of 8.6 h (XDL) vs 1.4 h (PICASSO), GPU SM
utilization 15% vs 75%, and sustained bandwidth 1.4 Gbps (TCP) vs
6.9 Gbps (TCP+RDMA) — a ~6x average acceleration that cuts the delay
of daily continuous delivery by 7 hours.

We reproduce the *mix*: a daily task trains a fixed instance budget on
each production model; the averages weight the three models equally.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import (
    PRODUCTION_BATCH_SIZES,
    Check,
    production_model,
    run_framework,
)
from repro.hardware import eflops_cluster

#: Instances one daily task must consume, per model (streaming day).
DAILY_INSTANCES = {"W&D": 600e6, "CAN": 200e6, "MMoE": 60e6}


def run_production_summary(iterations: int = 3,
                           num_nodes: int = 16) -> list:
    """Average daily-task walltime / SM util / bandwidth per system."""
    cluster = eflops_cluster(num_nodes)
    rows = []
    for system in ("XDL", "PICASSO"):
        walltimes = []
        sm_utils = []
        bandwidths = []
        for model_name in ("W&D", "CAN", "MMoE"):
            model, _dataset = production_model(model_name)
            batch = PRODUCTION_BATCH_SIZES[model_name]
            report = run_framework(system, model, cluster, batch,
                                   iterations=iterations)
            cluster_ips = report.ips * cluster.num_workers
            walltimes.append(DAILY_INSTANCES[model_name] / cluster_ips
                             / 3600.0)
            sm_utils.append(report.sm_utilization)
            bandwidths.append(report.net_gbps + report.nvlink_gbps)
        rows.append({
            "system": system,
            "avg_task_walltime_h": round(float(np.mean(walltimes)), 2),
            "sm_util_pct": round(float(np.mean(sm_utils)) * 100),
            "bandwidth_gbps": round(float(np.mean(bandwidths)), 2),
        })
    return rows


def paper_reference() -> list:
    """Tab. IX as published."""
    return [
        {"system": "XDL", "avg_task_walltime_h": 8.6, "sm_util_pct": 15,
         "bandwidth_gbps": 1.412},
        {"system": "PICASSO", "avg_task_walltime_h": 1.4,
         "sm_util_pct": 75, "bandwidth_gbps": 6.851},
    ]


def claims(rows: list) -> list:
    """Tab. IX's claims, on :func:`run_production_summary` rows."""
    stats = {row["system"]: row for row in rows}
    xdl, picasso = stats["XDL"], stats["PICASSO"]
    return [
        Check("PICASSO shortens the average daily task >= 1.5x "
              "(paper: 8.6h -> 1.4h, ~6x)",
              xdl["avg_task_walltime_h"] / picasso["avg_task_walltime_h"]
              >= 1.5),
        Check("PICASSO raises SM utilization",
              picasso["sm_util_pct"] > xdl["sm_util_pct"]),
        Check("PICASSO raises bandwidth",
              picasso["bandwidth_gbps"] > xdl["bandwidth_gbps"]),
    ]
