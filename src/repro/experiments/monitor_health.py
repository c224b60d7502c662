"""Run-health monitors across frameworks (the Fig. 4/5 pulse story).

Two tables: the pulse detector and overlap monitor applied to the
fig05-style breakdown workload under each distribution strategy, and
the comm/compute overlap ratio with K-Interleaving on vs off.  The
baselines alternate between memory-bound and compute-bound pulses with
exposed communication; PICASSO's pipelined schedule flattens the
pulses and hides communication behind compute — the paper's narrative,
as monitor output.
"""

from __future__ import annotations

from repro.api import RunConfig, profile
from repro.core import PicassoConfig
from repro.experiments.common import WD_WORKLOAD, Check

#: The overlap ablation's workload: K-Interleaving needs more than one
#: worker per set to pipeline anything.
OVERLAP_WORKLOAD = dict(WD_WORKLOAD, cluster="eflops:4", batch_size=8_000)

#: Frameworks in the paper's Fig. 5 comparison, plus PICASSO.
STRATEGIES = ("TF-PS", "PyTorch", "PICASSO")


def run_monitor_health() -> list:
    """Pulse/overlap monitor summaries per distribution strategy."""
    rows = []
    for framework in STRATEGIES:
        result = profile(RunConfig(framework=framework, **WD_WORKLOAD))
        pulse = result.monitors["pulse"].summary
        overlap = result.monitors["overlap"].summary
        rows.append({
            "framework": framework,
            "phases": pulse["num_phases"],
            "mem/compute/idle": (f"{pulse['memory_phases']}/"
                                 f"{pulse['compute_phases']}/"
                                 f"{pulse['idle_phases']}"),
            "alternations": pulse["alternations"],
            "idle": f"{pulse['idle_fraction']:.1%}",
            "overlap": f"{overlap['overlap_ratio']:.1%}",
            "alerts": sum(len(result.monitors[name].alerts)
                          for name in result.monitors),
        })
    return rows


def overlap_profiles() -> dict:
    """``{"on": result, "off": result}``: :func:`repro.api.profile` of
    :data:`OVERLAP_WORKLOAD` with K-Interleaving on, then off."""
    return {label: profile(RunConfig(picasso=picasso, **OVERLAP_WORKLOAD))
            for label, picasso in (
                ("on", PicassoConfig()),
                ("off", PicassoConfig().without("interleaving")))}


def run_overlap_ablation() -> list:
    """Comm/compute overlap with K-Interleaving on vs off."""
    rows = []
    for label, result in overlap_profiles().items():
        overlap = result.monitors["overlap"].summary
        rows.append({
            "variant": f"interleaving {label}",
            "overlap": f"{overlap['overlap_ratio']:.1%}",
            "hidden_ms": f"{overlap['overlapped_seconds'] * 1e3:.2f}",
            "exposed_ms": f"{overlap['exposed_seconds'] * 1e3:.2f}",
            "groups": overlap["num_groups"],
            "ips": f"{result.report.ips:,.0f}",
        })
    return rows


def monitor_health_claims(rows: list) -> list:
    """Fig. 4/5's pulses, checked on :func:`run_monitor_health` rows."""
    by_framework = {row["framework"]: row for row in rows}
    baselines = [by_framework[name] for name in ("TF-PS", "PyTorch")]
    phases = [tuple(map(int, row["mem/compute/idle"].split("/")))
              for row in baselines]
    return [
        Check("TF-PS and PyTorch show memory-bound pulses",
              all(mem >= 1 for mem, _compute, _idle in phases)),
        Check("TF-PS and PyTorch show compute-bound pulses",
              all(compute >= 1 for _mem, compute, _idle in phases)),
        Check("TF-PS and PyTorch alternate between them at least twice",
              all(row["alternations"] >= 2 for row in baselines)),
    ]


def overlap_ablation_claims(rows: list) -> list:
    """Eq. 3's overlap, checked on :func:`run_overlap_ablation` rows."""
    ratio = {row["variant"]: float(row["overlap"].rstrip("%")) / 100.0
             for row in rows}
    return [Check("K-Interleaving raises the measured comm/compute "
                  "overlap ratio",
                  ratio["interleaving on"] > ratio["interleaving off"])]
