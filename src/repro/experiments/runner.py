"""Run every experiment, print its table and check its paper claims.

``python -m repro.experiments.runner`` regenerates the full evaluation
(the EXPERIMENTS.md data), prints each claim's verdict under its table
and exits 1 if any claim fails; ``repro experiment NAME`` does the same
for one entry.
"""

from __future__ import annotations

import sys
import time

from repro.experiments import (
    autotune,
    diff_attribution,
    fault_recovery,
    fig01_gpu_util,
    fig03_distribution,
    fig05_breakdown,
    fig10_walltime,
    fig11_sm_cdf,
    fig12_bandwidth,
    fig13_ips,
    fig14_interleaving,
    fig15_scaling,
    monitor_health,
    serving_latency,
    shard_placement,
    staleness_auc,
    tab03_auc,
    tab04_ablation,
    tab05_op_counts,
    tab06_hot_storage,
    tab07_twelve_models,
    tab08_feature_fields,
    tab09_production,
    tab10_model_scale,
)
from repro.experiments.common import format_table
from repro.telemetry.span import maybe_span


def _render(title: str, rows: list) -> str:
    if not rows:
        return f"== {title}: no rows =="
    columns = list(rows[0].keys())
    return f"== {title} ==\n{format_table(rows, columns)}"


#: (title, run, claims) for every table and figure: ``run()`` returns
#: the rows the report prints and ``claims(rows)`` the
#: :class:`~repro.experiments.common.Check` list those rows must pass.
EXPERIMENTS = [
    ("Fig. 1 GPU utilization trend",
     fig01_gpu_util.run_gpu_util_trend, fig01_gpu_util.claims),
    ("Fig. 3 ID distribution",
     fig03_distribution.run_id_distribution, fig03_distribution.claims),
    ("Fig. 5 worker-side breakdown",
     fig05_breakdown.run_breakdown, fig05_breakdown.claims),
    ("Tab. III AUC", tab03_auc.run_auc, tab03_auc.claims),
    ("Fig. 10 walltime", fig10_walltime.run_walltime,
     fig10_walltime.claims),
    ("Fig. 11 SM-utilization CDF",
     lambda: fig11_sm_cdf.summary_rows(fig11_sm_cdf.run_sm_cdf()),
     fig11_sm_cdf.claims),
    ("Fig. 12 bandwidth", fig12_bandwidth.run_bandwidth,
     fig12_bandwidth.claims),
    ("Fig. 13 production IPS", fig13_ips.run_production_ips,
     fig13_ips.claims),
    ("Tab. IV ablation", tab04_ablation.run_ablation,
     tab04_ablation.claims),
    ("Tab. V operation counts", tab05_op_counts.run_op_counts,
     tab05_op_counts.claims),
    ("Fig. 14 interleaving groups",
     fig14_interleaving.run_interleave_groups,
     fig14_interleaving.interleave_groups_claims),
    ("Fig. 14 micro-batches",
     fig14_interleaving.run_micro_batches,
     fig14_interleaving.micro_batches_claims),
    ("Tab. VI hot-storage sweep",
     tab06_hot_storage.run_hot_storage_sweep, tab06_hot_storage.claims),
    ("Fig. 15 scaling out", fig15_scaling.run_scaling,
     fig15_scaling.claims),
    ("Tab. VII twelve models",
     tab07_twelve_models.run_twelve_models, tab07_twelve_models.claims),
    ("Tab. VIII feature-field sweep",
     tab08_feature_fields.run_feature_field_sweep,
     tab08_feature_fields.claims),
    ("Tab. IX production summary",
     tab09_production.run_production_summary, tab09_production.claims),
    ("Tab. X model-scale walltime",
     tab10_model_scale.run_model_scale, tab10_model_scale.claims),
    ("Serving latency-throughput",
     serving_latency.run_serving_latency, serving_latency.claims),
    ("Fault recovery goodput",
     fault_recovery.run_fault_recovery, fault_recovery.claims),
    ("Shard placement skew sweep",
     shard_placement.run_shard_placement, shard_placement.claims),
    ("Staleness vs AUC (publish cadence)",
     staleness_auc.run_staleness_auc, staleness_auc.claims),
    ("Auto-tuning strategy comparison",
     autotune.run_autotune, autotune.claims),
    ("Run-health monitors",
     monitor_health.run_monitor_health,
     monitor_health.monitor_health_claims),
    ("Overlap-ratio ablation",
     monitor_health.run_overlap_ablation,
     monitor_health.overlap_ablation_claims),
    ("Trace-diff attribution (interleave_sets=1)",
     diff_attribution.run_diff_attribution, diff_attribution.claims),
]


def run_experiment(title: str, run, claims, stream=None) -> list:
    """Run one experiment, print its table and each claim's verdict.

    :returns: the :class:`~repro.experiments.common.Check` list.
    """
    rows = run()
    checks = claims(rows)
    print(_render(title, rows), file=stream)
    for check in checks:
        verdict = "PASS" if check.passed else "FAIL"
        print(f"  {verdict}  {check.claim}", file=stream)
    return checks


def run_all(stream=None, tracer=None) -> list:
    """Execute every experiment; returns the failed ``(title, Check)``.

    :param tracer: optional :class:`repro.telemetry.Tracer`; each
        experiment becomes a wall-clock span on the ``experiments``
        track, so a full evaluation run exports as one timeline.
    """
    stream = stream or sys.stdout
    checked = []
    for title, run, claims in EXPERIMENTS:
        start = time.time()
        with maybe_span(tracer, title, category="experiment",
                        track="experiments"):
            checks = run_experiment(title, run, claims, stream)
        checked += [(title, check) for check in checks]
        print(f"  [{time.time() - start:.1f}s]\n", file=stream)
    failed = [(title, check) for title, check in checked
              if not check.passed]
    print(f"== claims: {len(checked) - len(failed)}/{len(checked)} "
          f"hold ==", file=stream)
    for title, check in failed:
        print(f"  FAIL  {title}: {check.claim}", file=stream)
    return failed


def main() -> int:
    """Run the full evaluation; 1 if any claim fails, else 0."""
    return 1 if run_all() else 0


if __name__ == "__main__":
    sys.exit(main())
