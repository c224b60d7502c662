"""Fig. 11: CDF of SM utilization while training DLRM, four systems.

The paper samples SM utilization at 10 ms granularity over a whole
DLRM run: the baselines show a large CDF mass at low utilization
(bottleneck stalls), while PICASSO has barely any low-utilization area.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import (
    BENCHMARK_BATCH_SIZES,
    Check,
    benchmark_model,
    run_framework,
)
from repro.hardware import gn6e_cluster
from repro.sim.metrics import busy_timeline
from repro.sim.resource import ResourceKind

FRAMEWORKS = ("TF-PS", "PyTorch", "Horovod", "PICASSO")


def _gpu_busy_timeline(report, bucket: float):
    """Union GPU busy fraction per bucket (SM + HBM activity)."""
    result = report.result
    _times, busy = busy_timeline(
        result.recorder, (ResourceKind.GPU_SM, ResourceKind.HBM),
        result.makespan, bucket)
    return busy


def run_sm_cdf(iterations: int = 3, bucket: float = 0.010) -> dict:
    """Per-framework sorted utilization samples + CDF summary stats."""
    cluster = gn6e_cluster(1)
    model, _dataset = benchmark_model("DLRM")
    results = {}
    for framework in FRAMEWORKS:
        batch = BENCHMARK_BATCH_SIZES["DLRM"][framework]
        report = run_framework(framework, model, cluster, batch,
                               iterations=iterations)
        samples = _gpu_busy_timeline(report, bucket)
        levels = np.sort(samples)
        cdf = np.arange(1, len(levels) + 1) / max(1, len(levels))
        results[framework] = {
            "levels": levels,
            "cdf": cdf,
            "median_util": float(np.median(samples)) if samples.size
            else 0.0,
            "frac_below_20pct": float(np.mean(samples < 0.2))
            if samples.size else 1.0,
        }
    return results


def summary_rows(results: dict) -> list:
    """Flatten CDF stats for table printing."""
    return [
        {
            "framework": framework,
            "median_util_pct": round(stats["median_util"] * 100, 1),
            "time_below_20pct_util": round(
                stats["frac_below_20pct"] * 100, 1),
        }
        for framework, stats in results.items()
    ]


def paper_reference() -> dict:
    """Fig. 11's qualitative shape."""
    return {
        "claim": ("baselines show large CDF area at low SM utilization; "
                  "PICASSO has barely any low-utilization mass"),
    }


def claims(rows: list) -> list:
    """Fig. 11's claims, checked on :func:`summary_rows` rows."""
    low = {row["framework"]: row["time_below_20pct_util"] for row in rows}
    return [
        Check("PICASSO has the least low-utilization mass (time below "
              "20% SM util) of the four systems",
              all(low["PICASSO"] <= low[baseline]
                  for baseline in ("TF-PS", "PyTorch", "Horovod"))),
        Check("TF-PS stalls at least as much as PICASSO",
              low["TF-PS"] >= low["PICASSO"]),
    ]
