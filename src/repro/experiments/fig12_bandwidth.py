"""Fig. 12: PCIe and NVLink bandwidth consumption, DLRM, four systems.

TF-PS routes everything through PS over PCIe/Ethernet so NVLink stays
dark; the collective frameworks light up NVLink; PICASSO sustains the
highest link usage thanks to interleaved pipelines.
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
from repro.sim.metrics import bandwidth_timeline
from repro.sim.resource import ResourceKind

FRAMEWORKS = ("TF-PS", "PyTorch", "Horovod", "PICASSO")


def run_bandwidth(iterations: int = 3, bucket: float = 0.010) -> list:
    """Mean/peak PCIe + NVLink bandwidth per framework (GB/s)."""
    cluster = gn6e_cluster(1)
    model, _dataset = benchmark_model("DLRM")
    rows = []
    for framework in FRAMEWORKS:
        batch = BENCHMARK_BATCH_SIZES["DLRM"][framework]
        report = run_framework(framework, model, cluster, batch,
                               iterations=iterations)
        result = report.result
        _t, pcie = bandwidth_timeline(result.recorder, ResourceKind.PCIE,
                                      result.makespan, bucket)
        nvlink = np.zeros(1)
        if ResourceKind.NVLINK in result.recorder.kinds():
            _t, nvlink = bandwidth_timeline(
                result.recorder, ResourceKind.NVLINK, result.makespan,
                bucket)
        rows.append({
            "framework": framework,
            "pcie_mean_gbps": round(float(pcie.mean()) / 1e9, 2)
            if pcie.size else 0.0,
            "pcie_peak_gbps": round(float(pcie.max()) / 1e9, 2)
            if pcie.size else 0.0,
            "nvlink_mean_gbps": round(float(nvlink.mean()) / 1e9, 2)
            if nvlink.size else 0.0,
            "nvlink_peak_gbps": round(float(nvlink.max()) / 1e9, 2)
            if nvlink.size else 0.0,
        })
    return rows


def paper_reference() -> dict:
    """Fig. 12's qualitative claims."""
    return {
        "TF-PS": "no NVLink traffic (PS mode bypasses it)",
        "PICASSO": ("highest bandwidth usage; slightly above Horovod/"
                    "PyTorch thanks to interleaved pipelines"),
    }


def claims(rows: list) -> list:
    """Fig. 12's claims, checked on :func:`run_bandwidth` rows."""
    stats = {row["framework"]: row for row in rows}
    return [
        Check("TF-PS never touches NVLink (PS mode bypasses peer links)",
              stats["TF-PS"]["nvlink_mean_gbps"] == 0.0),
        Check("PyTorch (a collective framework) uses NVLink",
              stats["PyTorch"]["nvlink_peak_gbps"] > 0.0),
        Check("PICASSO (a collective framework) uses NVLink",
              stats["PICASSO"]["nvlink_peak_gbps"] > 0.0),
        Check("PICASSO sustains at least half of Horovod's mean NVLink "
              "traffic (interleaved pipelines)",
              stats["PICASSO"]["nvlink_mean_gbps"]
              >= 0.5 * stats["Horovod"]["nvlink_mean_gbps"]),
    ]
