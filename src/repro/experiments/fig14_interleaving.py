"""Fig. 14: throughput vs number of interleaving groups / micro-batches.

The communication-heavy models (W&D, CAN) benefit from more
K-Interleaving groups (uniformized resource usage); the
computation-heavy models (CAN, MMoE) benefit from more micro-batches
(GPU saturation), with diminishing or negative returns past the sweet
spot.
"""

from __future__ import annotations

from repro.core import PicassoConfig
from repro.experiments.common import (
    PRODUCTION_BATCH_SIZES,
    Check,
    production_model,
    run_picasso,
)
from repro.hardware import eflops_cluster


def run_interleave_groups(group_counts: tuple = (1, 3, 5, 7, 9, 11),
                          iterations: int = 2,
                          num_nodes: int = 16) -> list:
    """IPS vs K-Interleaving set count for the production models."""
    cluster = eflops_cluster(num_nodes)
    rows = []
    for model_name in ("W&D", "CAN", "MMoE"):
        model, _dataset = production_model(model_name)
        batch = PRODUCTION_BATCH_SIZES[model_name]
        for count in group_counts:
            config = PicassoConfig(interleave_sets=count, micro_batches=3)
            report = run_picasso(model, cluster, batch, config=config,
                                 iterations=iterations)
            rows.append({
                "model": model_name,
                "interleave_groups": count,
                "ips": round(report.ips),
            })
    return rows


def run_micro_batches(micro_counts: tuple = (1, 2, 3, 4, 6, 8),
                      iterations: int = 2, num_nodes: int = 16) -> list:
    """IPS vs D-Interleaving micro-batch count."""
    cluster = eflops_cluster(num_nodes)
    rows = []
    for model_name in ("W&D", "CAN", "MMoE"):
        model, _dataset = production_model(model_name)
        batch = PRODUCTION_BATCH_SIZES[model_name]
        for count in micro_counts:
            config = PicassoConfig(micro_batches=count)
            report = run_picasso(model, cluster, batch, config=config,
                                 iterations=iterations)
            rows.append({
                "model": model_name,
                "micro_batches": count,
                "ips": round(report.ips),
            })
    return rows


def paper_reference() -> dict:
    """Fig. 14's qualitative claims."""
    return {
        "groups": ("W&D and CAN (communication-intensive) gain from "
                   "more interleaving groups; the models own 16/19/11 "
                   "packed embeddings"),
        "micro_batches": ("CAN and MMoE (computation-intensive) gain "
                          "from more micro-batches by saturating the "
                          "GPU"),
    }


def _series(rows: list, knob: str) -> dict:
    by_model: dict = {}
    for row in rows:
        by_model.setdefault(row["model"], {})[row[knob]] = row["ips"]
    return by_model


def interleave_groups_claims(rows: list) -> list:
    """Fig. 14's groups claim, on :func:`run_interleave_groups` rows."""
    by_model = _series(rows, "interleave_groups")
    # Communication-heavy models benefit from interleaving groups:
    # some group count > 1 beats no interleaving.
    return [Check("W&D and CAN: some interleaving group count > 1 "
                  "reaches >= 0.95x the ips of no interleaving",
                  all(max(series[count] for count in series if count > 1)
                      >= series[1] * 0.95
                      for series in (by_model["W&D"], by_model["CAN"])))]


def micro_batches_claims(rows: list) -> list:
    """Fig. 14's micro-batch claim, on :func:`run_micro_batches` rows."""
    by_model = _series(rows, "micro_batches")
    # Compute-intensive models gain from micro-batching (paper: CAN
    # and MMoE meet GPU saturation with more micro-batches).
    return [Check("CAN and MMoE: the best micro-batch count beats one",
                  all(max(series.values()) > series[1]
                      for series in (by_model["CAN"], by_model["MMoE"])))]
