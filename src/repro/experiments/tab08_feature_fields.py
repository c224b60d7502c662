"""Tab. VIII: throughput while multiplying the number of feature fields.

The paper duplicates Product-2's fields k times (the dataset has no
real workload that wide) and duplicates the interaction layers
accordingly.  Ideal cost grows linearly, so the arithmetic-progression
(AP) prediction is ``IPS(1)/k``.  PICASSO lands slightly *above* AP
(packing amortizes the extra fields); the PS baseline falls further
*below* AP as fragmentary operations multiply.
"""

from __future__ import annotations

from repro.baselines import framework_by_name
from repro.core import PicassoConfig, PicassoExecutor
from repro.data import product2
from repro.experiments.common import Check
from repro.hardware import eflops_cluster
from repro.models import can


def run_feature_field_sweep(multiples: tuple = (1, 2, 4, 8),
                            batch_size: int = 12_000,
                            iterations: int = 2, num_nodes: int = 16,
                            scale: float = 1.0) -> list:
    """IPS vs field-count multiple for PICASSO and XDL, with AP."""
    cluster = eflops_cluster(num_nodes)
    base = product2(scale)
    rows = []
    reference = {}
    for multiple in multiples:
        dataset = base.replicated(multiple) if multiple > 1 else base
        model = can(dataset)
        # One configuration tuned on the base workload, reused across
        # the sweep (the paper keeps the training setup fixed while
        # duplicating fields).
        config = PicassoConfig(interleave_sets=5, micro_batches=3)
        picasso = PicassoExecutor(model, cluster, config).run(
            batch_size, iterations=iterations)
        xdl = framework_by_name("XDL").run(model, cluster, batch_size,
                                           iterations=iterations)
        if multiple == multiples[0]:
            reference = {"PICASSO": picasso.ips * multiple,
                         "XDL": xdl.ips * multiple}
        ap_picasso = reference["PICASSO"] / multiple
        ap_xdl = reference["XDL"] / multiple
        rows.append({
            "fields_multiple": multiple,
            "picasso_ips": round(picasso.ips),
            "picasso_ap": round(ap_picasso),
            "picasso_vs_ap_pct": round(
                (picasso.ips / ap_picasso - 1) * 100, 1),
            "xdl_ips": round(xdl.ips),
            "xdl_ap": round(ap_xdl),
            "xdl_vs_ap_pct": round((xdl.ips / ap_xdl - 1) * 100, 1),
        })
    return rows


def paper_reference() -> dict:
    """Tab. VIII's quantitative shape."""
    return {
        "picasso_vs_ap": "0% at x1 rising to +5.3% at x8 (above AP)",
        "xdl_vs_ap": "0% at x1 falling to -15.3% at x8 (below AP)",
    }


def claims(rows: list) -> list:
    """Tab. VIII's claims, on :func:`run_feature_field_sweep` rows."""
    widest = rows[-1]
    picasso = [row["picasso_ips"] for row in rows]
    # At the widest point, PICASSO tracks (or beats) the arithmetic-
    # progression prediction while the PS baseline falls below it.
    return [
        Check("at the widest point PICASSO's gap to AP is at least "
              "XDL's",
              widest["picasso_vs_ap_pct"] >= widest["xdl_vs_ap_pct"]),
        Check("at the widest point XDL is at most 2% above AP",
              widest["xdl_vs_ap_pct"] <= 2.0),
        Check("PICASSO throughput strictly falls as fields multiply",
              all(b < a for a, b in zip(picasso, picasso[1:]))),
    ]
