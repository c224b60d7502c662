"""Fig. 10: training walltime (GPU core hours) of the four benchmarks.

One epoch of the dataset per common industrial practice; TF-PS is the
slowest, Horovod/PyTorch improve substantially via collectives, and
PICASSO is fastest — at least 1.9x over the best baseline and up to
10x over TF-PS, with the largest advantage on DIN/DIEN.
"""

from __future__ import annotations

from repro.experiments.common import (
    BENCHMARK_BATCH_SIZES,
    Check,
    benchmark_model,
    run_framework,
)
from repro.hardware import gn6e_cluster

FRAMEWORKS = ("TF-PS", "PyTorch", "Horovod", "PICASSO")

#: One-epoch instance counts (Tab. II; Alibaba 13M x multiple passes in
#: the original setup — we use the raw instance count).
EPOCH_INSTANCES = {"DLRM": 4e9, "DeepFM": 4e9, "DIN": 13e6, "DIEN": 13e6}


def run_walltime(iterations: int = 3) -> list:
    """IPS and GPU-core-hours per (model, framework) on one Gn6e node."""
    cluster = gn6e_cluster(1)
    rows = []
    for model_name, batches in BENCHMARK_BATCH_SIZES.items():
        model, _dataset = benchmark_model(model_name)
        for framework in FRAMEWORKS:
            report = run_framework(framework, model, cluster,
                                   batches[framework],
                                   iterations=iterations)
            hours = report.gpu_core_hours(EPOCH_INSTANCES[model_name])
            rows.append({
                "model": model_name,
                "framework": framework,
                "batch": batches[framework],
                "ips": round(report.ips),
                "gpu_core_hours": round(hours, 2),
            })
    return rows


def speedups(rows: list) -> list:
    """Per-model speedup of PICASSO vs TF-PS and vs the best baseline."""
    summary = []
    by_model: dict = {}
    for row in rows:
        by_model.setdefault(row["model"], {})[row["framework"]] = row["ips"]
    for model, ips in by_model.items():
        best_baseline = max(ips["PyTorch"], ips["Horovod"])
        summary.append({
            "model": model,
            "vs_tf_ps": round(ips["PICASSO"] / ips["TF-PS"], 2),
            "vs_best_baseline": round(ips["PICASSO"] / best_baseline, 2),
        })
    return summary


def paper_reference() -> dict:
    """Fig. 10's quantitative claims."""
    return {
        "ordering": "TF-PS slowest; PICASSO fastest on all four models",
        "speedup_vs_tf_ps": "1.9x .. 10x",
        "note": "advantage most remarkable on DIN and DIEN",
    }


def claims(rows: list) -> list:
    """Fig. 10's claims, checked on :func:`run_walltime` rows."""
    by_key = {(row["model"], row["framework"]): row["ips"]
              for row in rows}
    ips = [{framework: by_key[(model, framework)]
            for framework in FRAMEWORKS}
           for model in ("DLRM", "DeepFM", "DIN", "DIEN")]
    summary = speedups(rows)
    # "accelerates the training by at least 1.9x, and up to 10x".
    return [
        Check("TF-PS is the slowest framework on every model",
              all(min(series, key=series.get) == "TF-PS"
                  for series in ips)),
        Check("PICASSO is the fastest framework on every model",
              all(max(series, key=series.get) == "PICASSO"
                  for series in ips)),
        Check("PICASSO is >= 1.5x the best baseline on every model",
              all(row["vs_best_baseline"] >= 1.5 for row in summary)),
        Check("PICASSO is >= 1.5x TF-PS on every model",
              all(row["vs_tf_ps"] >= 1.5 for row in summary)),
    ]
