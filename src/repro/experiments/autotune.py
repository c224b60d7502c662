"""Auto-tuning study (ROADMAP extension, not a paper table): how well
trace-driven what-if search recovers the knobs the paper tunes
"empirically from warm-up iterations".

One baseline run of the training bench scenario is recorded once; each
registered search strategy then hunts PICASSO's knob space
(K-Interleaving sets, D-Interleaving micro-batches, HybridHash hot
storage) and validates its top predictions with real runs through
:func:`repro.api.tune`.  The table reports, per strategy:

* ``gain_pct`` — measured ips improvement of the crowned winner over
  the untouched baseline (the ``tune`` acceptance floor is >= 10% on
  coordinate descent);
* ``fidelity_pct`` — signed replay-prediction error on the winner
  (|error| <= 15% is the acceptance ceiling), trivially 0 for the
  fully-measured ``warmup-grid`` legacy strategy;
* ``validated`` / ``candidates`` — real runs spent vs candidates
  priced, the replay's whole point being that the second number can
  grow without the first.

The table is a pure function of the modeled run (no RNG anywhere in
the loop), so repeated invocations are byte-identical.
"""

from __future__ import annotations

from repro.api import RunConfig, TuneConfig, tune
from repro.experiments.common import WD_WORKLOAD, Check
from repro.tuning import strategies

#: The baseline every strategy tunes (the ``replay`` bench's run).
BASE = RunConfig(**WD_WORKLOAD)


def _format_assignment(assignment: dict) -> str:
    if not assignment:
        return "(baseline)"
    parts = []
    for key, value in sorted(assignment.items()):
        if key == "hot_storage_bytes":
            parts.append(f"hot={value / (1 << 30):g}GiB")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def run_autotune(base: RunConfig = BASE,
                 strategy_names: tuple | None = None) -> list:
    """One row per registered search strategy on the bench scenario."""
    names = strategy_names or strategies()
    model = base.build_model()
    rows = []
    for name in names:
        result = tune(TuneConfig(run=base, strategy=name), model=model)
        rows.append({
            "strategy": name,
            "winner": _format_assignment(result.best_assignment),
            "base_ips": f"{result.base_ips:,.0f}",
            "best_ips": f"{result.best_ips:,.0f}",
            "gain_pct": f"{result.gain * 100:+.1f}",
            "fidelity_pct": f"{result.fidelity_error * 100:+.1f}",
            "validated": len(result.validations),
            "candidates": result.candidates_evaluated,
        })
    return rows


def claims(rows: list) -> list:
    """The study's claims, checked on :func:`run_autotune` rows."""
    by_name = {row["strategy"]: row for row in rows}
    return [
        Check("every registered strategy finds a real improvement",
              all(float(row["gain_pct"]) > 0.0 for row in rows)),
        Check("the fully-measured warmup-grid strategy reports zero "
              "prediction error",
              float(by_name["warmup-grid"]["fidelity_pct"]) == 0.0),
    ]
