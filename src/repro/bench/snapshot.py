"""Schema-versioned benchmark snapshots + per-metric regression gates.

A :class:`BenchSnapshot` freezes one benchmark's headline numbers —
flat metrics, monitor summaries, the exact config it ran under — into
a ``BENCH_<name>.json`` file whose bytes are a pure function of the
run (sorted keys, fixed separators, no timestamps).  CI commits the
snapshots as baselines; :func:`compare_snapshots` diffs a candidate
against its baseline metric by metric, each with its own relative
tolerance, and the resulting :class:`GateReport` (gates ranked by how
far past their tolerance they moved) is the one report both ``repro
bench compare`` (which exits non-zero on it) and ``repro diff
--bench`` print; :func:`pair_snapshots` pairs the two directories
they read.

The config fingerprint guards against silent workload drift: a gate
only means something if baseline and candidate measured the same
thing, so a changed config fails the gate outright rather than
producing an apples-to-oranges "pass".
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from repro.sim.trace import canonical_json
from repro.telemetry.provenance import config_fingerprint

#: Bump when the snapshot layout changes incompatibly.
SCHEMA_VERSION = 1

#: Gate tolerance applied to metrics without an explicit one (5%).
DEFAULT_TOLERANCE = 0.05


def snapshot_filename(name: str) -> str:
    """``BENCH_<name>.json`` for a benchmark called ``name``."""
    return f"BENCH_{name}.json"


@dataclass(frozen=True)
class BenchSnapshot:
    """One benchmark's frozen results.

    :param metrics: flat ``{metric: number}`` — the gated surface.
    :param monitors: ``{monitor: summary dict}`` from
        :class:`~repro.telemetry.MonitorReport` summaries (recorded for
        inspection; gated only via metrics that mirror them).
    :param tolerances: per-metric relative tolerance overrides; metrics
        absent here gate at :data:`DEFAULT_TOLERANCE`.  A tolerance of
        0 demands exact equality (use for counts).
    :param provenance: run-manifest dict (see
        :func:`repro.telemetry.provenance.build_manifest`) recording
        which code produced the snapshot; informational — the gate
        compares only metrics and the config fingerprint.
    """

    name: str
    config: dict
    metrics: dict
    monitors: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION
    provenance: dict = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        return config_fingerprint(self.config)

    def tolerance_for(self, metric: str) -> float:
        return float(self.tolerances.get(metric, DEFAULT_TOLERANCE))

    def as_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "config": self.config,
            "config_fingerprint": self.fingerprint,
            "metrics": self.metrics,
            "monitors": self.monitors,
            "tolerances": self.tolerances,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchSnapshot":
        return cls(
            name=payload["name"],
            config=payload["config"],
            metrics=payload["metrics"],
            monitors=payload.get("monitors", {}),
            tolerances=payload.get("tolerances", {}),
            schema_version=payload.get("schema_version", SCHEMA_VERSION),
            provenance=payload.get("provenance", {}))


def write_snapshot(snapshot: BenchSnapshot, directory: str) -> str:
    """Write ``BENCH_<name>.json`` under ``directory``; returns the path.

    Byte-deterministic: two snapshots of identical runs are identical
    files.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, snapshot_filename(snapshot.name))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(snapshot.as_dict()))
    return path


def load_snapshot(path: str) -> BenchSnapshot:
    """Read a snapshot back; raises on schema-version mismatch."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: snapshot schema v{version} != "
            f"supported v{SCHEMA_VERSION}; regenerate the baseline")
    return BenchSnapshot.from_dict(payload)


def pair_snapshots(base_dir: str, candidate_dir: str,
                   names=None) -> list:
    """Pair ``BENCH_<name>.json`` files across two directories.

    Returns ``[(name, baseline path, candidate path)]`` sorted by name,
    over ``names`` (default: every snapshot found on either side); a
    path is ``None`` where its directory has no such file.
    """
    if names is None:
        names = {entry[len("BENCH_"):-len(".json")]
                 for directory in (base_dir, candidate_dir)
                 if os.path.isdir(directory)
                 for entry in os.listdir(directory)
                 if entry.startswith("BENCH_") and entry.endswith(".json")}
    pairs = []
    for name in sorted(names):
        paths = [os.path.join(directory, snapshot_filename(name))
                 for directory in (base_dir, candidate_dir)]
        pairs.append((name, *(path if os.path.exists(path) else None
                              for path in paths)))
    return pairs


def _finite_or_none(value: float):
    """NaN and inf sentinels as ``None``, so payloads stay strict JSON."""
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class MetricGate:
    """One metric's baseline-vs-candidate verdict.

    ``severity`` is the distance past the gate: ``|rel_delta| /
    tolerance``, so a 2% move on a 0.5% tolerance outranks a 20% move
    on a 50% one.  A ``missing`` metric, or a moved zero-tolerance one,
    scores ``inf``; a ``new`` one scores 0.
    """

    metric: str
    baseline: float | None
    current: float | None
    rel_delta: float
    tolerance: float
    status: str  # "ok" | "fail" | "new" | "missing"
    severity: float

    @property
    def failed(self) -> bool:
        return self.status in ("fail", "missing")

    def as_dict(self) -> dict:
        return {
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "rel_delta": _finite_or_none(self.rel_delta),
            "tolerance": self.tolerance,
            "status": self.status,
            "severity": _finite_or_none(self.severity),
        }


@dataclass(frozen=True)
class GateReport:
    """Per-metric comparison of one benchmark against its baseline,
    gates ranked most severe first, with both sides' provenance."""

    name: str
    gates: tuple
    fingerprint_match: bool
    base_provenance: dict = field(default_factory=dict)
    candidate_provenance: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.fingerprint_match \
            and not any(gate.failed for gate in self.gates)

    @property
    def failures(self) -> list:
        return [gate for gate in self.gates if gate.failed]

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "fingerprint_match": self.fingerprint_match,
            "gates": [gate.as_dict() for gate in self.gates],
            "base_provenance": dict(self.base_provenance),
            "candidate_provenance": dict(self.candidate_provenance),
        }

    def format(self, k: int | None = None) -> str:
        """The ranked per-metric table; ``k`` keeps the top ``k`` rows."""
        lines = [f"bench {self.name}: "
                 f"{'PASS' if self.passed else 'FAIL'} "
                 f"({len(self.failures)} metric(s) over tolerance)"]
        if not self.fingerprint_match:
            lines.append("  config fingerprint mismatch: baseline and "
                         "candidate ran different workloads")
        for side, prov in (("base", self.base_provenance),
                           ("candidate", self.candidate_provenance)):
            if prov:
                lines.append(
                    f"  {side}: git {prov.get('git', '?')} config "
                    f"{prov.get('config_fingerprint', '?')}")
        header = (f"  {'metric':<28} {'baseline':>14} {'current':>14} "
                  f"{'delta':>9} {'tol':>7} {'sev':>7}  status")
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for gate in self.gates[:k]:
            baseline = ("-" if gate.baseline is None
                        else f"{gate.baseline:.6g}")
            current = ("-" if gate.current is None
                       else f"{gate.current:.6g}")
            delta = ("-" if gate.rel_delta != gate.rel_delta  # NaN
                     else f"{gate.rel_delta:+.2%}")
            severity = ("inf" if gate.severity == math.inf
                        else f"{gate.severity:.1f}x")
            lines.append(
                f"  {gate.metric:<28} {baseline:>14} {current:>14} "
                f"{delta:>9} {gate.tolerance:>6.1%} {severity:>7}  "
                f"{gate.status}")
        return "\n".join(lines)


def _relative_delta(baseline: float, current: float) -> float:
    """Signed relative change, safe around a zero baseline."""
    if baseline == current:
        return 0.0
    denominator = max(abs(baseline), 1e-12)
    return (current - baseline) / denominator


def _gate(metric: str, baseline: BenchSnapshot,
          candidate: BenchSnapshot) -> MetricGate:
    tolerance = baseline.tolerance_for(metric)
    if metric not in candidate.metrics:
        return MetricGate(metric, float(baseline.metrics[metric]), None,
                          math.nan, tolerance, "missing", math.inf)
    current = float(candidate.metrics[metric])
    if metric not in baseline.metrics:
        return MetricGate(metric, None, current, math.nan, tolerance,
                          "new", 0.0)
    base_value = float(baseline.metrics[metric])
    delta = _relative_delta(base_value, current)
    if tolerance > 0:
        severity = abs(delta) / tolerance
    else:
        severity = math.inf if delta != 0.0 else 0.0
    status = "ok" if abs(delta) <= tolerance else "fail"
    return MetricGate(metric, base_value, current, delta, tolerance,
                      status, severity)


def compare_snapshots(baseline: BenchSnapshot,
                      candidate: BenchSnapshot) -> GateReport:
    """Gate ``candidate`` against ``baseline``, metric by metric.

    Baseline metrics missing from the candidate fail (``missing``);
    candidate metrics absent from the baseline are reported as ``new``
    without failing (the baseline update will absorb them).  Gates are
    ranked by severity, then metric name.
    """
    gates = sorted(
        (_gate(metric, baseline, candidate)
         for metric in set(baseline.metrics) | set(candidate.metrics)),
        key=lambda gate: (-gate.severity, gate.metric))
    return GateReport(
        name=baseline.name,
        gates=tuple(gates),
        fingerprint_match=baseline.fingerprint == candidate.fingerprint,
        base_provenance=dict(baseline.provenance),
        candidate_provenance=dict(candidate.provenance))
