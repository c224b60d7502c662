"""Tab. X: walltime to train one year of data, by model scale.

On 128 V100 workers, training the accumulated year of data for models
of growing parameter scale: XDL needs 2,072 GPU-core-hours at ~1B and
a (projected) 323,480 at ~1T; PICASSO needs 747 -> 27,256 — reducing
100B-scale training from a month to two days and keeping 1T-scale
under nine days.

The scale ladder maps to model families of growing width/depth, as in
production: ~1B = a narrow W&D, ~10B = full W&D (Product-1), ~100B =
CAN (Product-2), ~1T = MMoE (Product-3).
"""

from __future__ import annotations

from dataclasses import replace

from repro.data import product1, product2, product3
from repro.experiments.common import Check, run_framework
from repro.hardware import eflops_cluster
from repro.models import can, mmoe, wide_deep

#: One year of accumulated training data (instances).
YEAR_INSTANCES = 12e9


def _scale_ladder():
    narrow = product1(0.1)
    narrow = replace(narrow, fields=narrow.fields[:64], name="Product-1/64")
    return [
        ("~1B", wide_deep(narrow), 20_000),
        ("~10B", wide_deep(product1(1.0)), 20_000),
        ("~100B", can(product2(1.0)), 12_000),
        ("~1T", mmoe(product3(1.0)), 9_000),
    ]


def run_model_scale(iterations: int = 2, num_workers: int = 128) -> list:
    """GPU-core-hours per scale tier, XDL vs PICASSO."""
    cluster = eflops_cluster(num_workers)
    rows = []
    for label, model, batch in _scale_ladder():
        record = {"scale": label,
                  "params": f"{model.dataset.total_parameters:.2g}"}
        for system in ("XDL", "PICASSO"):
            report = run_framework(system, model, cluster, batch,
                                   iterations=iterations)
            # GPU-core-hours: the fleet processes workers*ips inst/s
            # while burning `workers` GPU-seconds per second.
            hours = YEAR_INSTANCES / report.ips / 3600.0
            record[f"{system.lower()}_gpu_hours"] = round(hours)
        record["speedup"] = round(
            record["xdl_gpu_hours"] / record["picasso_gpu_hours"], 2)
        rows.append(record)
    return rows


def paper_reference() -> list:
    """Tab. X as published ("P" = projected)."""
    return [
        {"scale": "~1B", "xdl_gpu_hours": 2_072,
         "picasso_gpu_hours": 747},
        {"scale": "~10B", "xdl_gpu_hours": 11_013,
         "picasso_gpu_hours": 2_285},
        {"scale": "~100B", "xdl_gpu_hours": 88_129,
         "picasso_gpu_hours": 6_091},
        {"scale": "~1T", "xdl_gpu_hours": 323_480,
         "picasso_gpu_hours": 27_256},
    ]


def claims(rows: list) -> list:
    """Tab. X's claims, checked on :func:`run_model_scale` rows."""
    xdl = [row["xdl_gpu_hours"] for row in rows]
    picasso = [row["picasso_gpu_hours"] for row in rows]
    return [
        Check("PICASSO needs fewer GPU-hours than XDL at every scale tier",
              all(row["picasso_gpu_hours"] < row["xdl_gpu_hours"]
                  for row in rows)),
        Check("XDL walltime grows with model scale", xdl == sorted(xdl)),
        Check("PICASSO walltime grows with model scale",
              picasso == sorted(picasso)),
    ]
