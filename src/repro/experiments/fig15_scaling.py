"""Fig. 15: scaling out from 1 to 128 PICASSO-Executors.

CAN and MMoE scale near-linearly; W&D is sublinear because its cheap
per-instance work leaves the growing collective overhead exposed.
"""

from __future__ import annotations

from repro.experiments.common import (
    PRODUCTION_BATCH_SIZES,
    Check,
    production_model,
    run_picasso,
)
from repro.hardware import eflops_cluster

WORKER_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128)


def run_scaling(worker_counts: tuple = WORKER_COUNTS,
                iterations: int = 2,
                models: tuple = ("W&D", "CAN", "MMoE")) -> list:
    """Aggregate cluster IPS per (model, worker count)."""
    rows = []
    for model_name in models:
        model, _dataset = production_model(model_name)
        batch = PRODUCTION_BATCH_SIZES[model_name]
        for workers in worker_counts:
            cluster = eflops_cluster(workers)
            report = run_picasso(model, cluster, batch,
                                 iterations=iterations)
            rows.append({
                "model": model_name,
                "workers": workers,
                "cluster_ips": round(report.ips * workers),
                "per_worker_ips": round(report.ips),
            })
    return rows


def scaling_efficiency(rows: list) -> list:
    """Cluster IPS at max scale relative to perfect linear scaling."""
    by_model: dict = {}
    for row in rows:
        by_model.setdefault(row["model"], {})[row["workers"]] = \
            row["cluster_ips"]
    summary = []
    for model, points in by_model.items():
        smallest = min(points)
        largest = max(points)
        ideal = points[smallest] * (largest / smallest)
        summary.append({
            "model": model,
            "workers": largest,
            "efficiency_pct": round(points[largest] / ideal * 100, 1),
        })
    return summary


def paper_reference() -> dict:
    """Fig. 15's qualitative claim."""
    return {
        "claim": ("near-linear scalability on CAN and MMoE; sublinear "
                  "throughput on W&D"),
    }


def claims(rows: list) -> list:
    """Fig. 15's claims, checked on :func:`run_scaling` rows."""
    by_model: dict = {}
    for row in rows:
        by_model.setdefault(row["model"], []).append(
            (row["workers"], row["cluster_ips"]))
    curves = [[ips for _workers, ips in sorted(series)]
              for series in by_model.values()]
    # The paper reports near-linear CAN/MMoE and sublinear W&D; in our
    # cost model W&D's PCIe-bound iterations are scale-invariant, so
    # its curve is flatter - see EXPERIMENTS.md.
    return [
        Check("cluster throughput grows > 1.2x at every worker-count "
              "step, for every model",
              all(b > a * 1.2
                  for values in curves for a, b in zip(values, values[1:]))),
        Check("every model keeps >= 60% scale-out efficiency at the "
              "largest worker count",
              all(row["efficiency_pct"] >= 60.0
                  for row in scaling_efficiency(rows))),
    ]
