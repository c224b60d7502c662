"""Regression-gated benchmark snapshots (``repro bench``).

``repro.bench`` turns runs into committed ``BENCH_<name>.json``
baselines and gates candidates against them: :mod:`~repro.bench.suite`
defines the deterministic CI-sized workloads,
:mod:`~repro.bench.snapshot` the byte-stable snapshot format and the
one per-metric tolerance comparison that ``bench compare`` exits
non-zero on and ``diff --bench`` ranks.
"""

from repro.bench.snapshot import (
    DEFAULT_TOLERANCE,
    SCHEMA_VERSION,
    BenchSnapshot,
    GateReport,
    MetricGate,
    canonical_json,
    compare_snapshots,
    config_fingerprint,
    load_snapshot,
    pair_snapshots,
    snapshot_filename,
    write_snapshot,
)
from repro.bench.suite import BENCHES, run_benches

__all__ = [
    "BENCHES",
    "BenchSnapshot",
    "DEFAULT_TOLERANCE",
    "GateReport",
    "MetricGate",
    "SCHEMA_VERSION",
    "canonical_json",
    "compare_snapshots",
    "config_fingerprint",
    "load_snapshot",
    "pair_snapshots",
    "run_benches",
    "snapshot_filename",
    "write_snapshot",
]
