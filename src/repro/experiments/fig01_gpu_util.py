"""Fig. 1: GPU utilization trend across WDL model generations.

The paper's opening observation: as recommendation models evolved from
collaborative filtering toward wide-and-deep designs with more feature
fields and interaction modules, *canonical PS training left GPUs more
and more underutilized* (from ~40% down to ~10-20%), even as accuracy
improved.  We reproduce the trend by training the model generations on
the PS strategy and measuring GPU busy time.
"""

from __future__ import annotations

from repro.data import product2
from repro.experiments.common import Check, run_framework
from repro.hardware import eflops_cluster
from repro.models import MODEL_BUILDERS

#: The generation sequence from Fig. 1 (left-to-right in time).
MODEL_GENERATIONS = ["LR", "W&D", "DeepFM", "DIN", "DIEN", "MMoE", "CAN"]


def run_gpu_util_trend(batch_size: int = 8_000, iterations: int = 2,
                       scale: float = 0.2) -> list:
    """GPU SM utilization per model generation under PS training."""
    dataset = product2(scale)
    cluster = eflops_cluster(8)
    rows = []
    for name in MODEL_GENERATIONS:
        model = MODEL_BUILDERS[name](dataset)
        report = run_framework("TF-PS", model, cluster, batch_size,
                               iterations=iterations)
        rows.append({
            "model": name,
            "gpu_util_pct": round(report.sm_utilization * 100, 1),
            "ips": round(report.ips),
        })
    return rows


def paper_reference() -> dict:
    """Qualitative claim from Fig. 1."""
    return {
        "claim": ("average GPU utilization of PS-trained WDL models "
                  "stays in the 10-40% band and trends down as models "
                  "widen/deepen; CV/NLP reach 95%+"),
        "band": (5, 45),
    }


def claims(rows: list) -> list:
    """Fig. 1's claim, checked on :func:`run_gpu_util_trend` rows."""
    _low, high = paper_reference()["band"]
    # The paper's point: PS training never gets WDL models anywhere
    # near the 95%+ a CV/NLP workload reaches.
    return [Check(f"PS training keeps every WDL generation within the "
                  f"{high}% underutilization band",
                  all(row["gpu_util_pct"] <= high for row in rows))]
