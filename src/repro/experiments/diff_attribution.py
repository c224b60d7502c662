"""Differential-observability demo: attribute a knob's cost by diff.

Runs the training workload twice — default PICASSO against the same
config with ``interleave_sets=1`` (K-Interleaving collapsed to a
single set, so nothing pipelines across sets) — freezes both task
traces, and lets :func:`repro.telemetry.diff_traces` attribute the
makespan delta to op classes.  The table is the diff engine's ranked
report: instead of "the run got slower", it reads "these ops gained
this much on-path time, carrying this share of the regression".
"""

from __future__ import annotations

from repro.api import RunConfig, run, run_manifest
from repro.core import PicassoConfig
from repro.experiments.common import WD_WORKLOAD, Check
from repro.sim import FrozenTrace
from repro.telemetry import diff_traces


def _freeze(config: RunConfig) -> FrozenTrace:
    report = run(config)
    return FrozenTrace(
        records=tuple(report.result.task_records),
        makespan=report.result.makespan,
        metadata={"provenance": run_manifest(config, report.name,
                                             kind="trace")})


def run_diff_attribution(top_k: int = 6) -> list:
    """Rank what ``interleave_sets=1`` costs, op class by op class."""
    base_config = RunConfig(record_tasks=True, **WD_WORKLOAD)
    knobbed = base_config.with_overrides(
        picasso=PicassoConfig(interleave_sets=1))
    base = _freeze(base_config)
    candidate = _freeze(knobbed)
    diff = diff_traces(base, candidate, top_k=top_k)
    rows = []
    for rank, entry in enumerate(diff.entries[:top_k], start=1):
        rows.append({
            "rank": rank,
            "op": entry.label,
            "path_delta_ms": f"{entry.path_delta * 1e3:+.3f}",
            "share": f"{entry.share:+.1%}",
            "exec_delta": f"{entry.exec_pct:+.1%}",
            "workers": ",".join(entry.workers) or "-",
        })
    rows.append({
        "rank": "-",
        "op": "makespan",
        "path_delta_ms": f"{diff.makespan_delta * 1e3:+.3f}",
        "share": "100.0%",
        "exec_delta": "-",
        "workers": f"aligned {diff.alignment['name']}"
                   f"+{diff.alignment['class']}",
    })
    return rows


def claims(rows: list) -> list:
    """The report's contract, on :func:`run_diff_attribution` rows."""
    deltas = [abs(float(row["path_delta_ms"])) for row in rows[:-1]]
    return [Check("op classes are ranked by the size of their on-path "
                  "delta", deltas == sorted(deltas, reverse=True))]
