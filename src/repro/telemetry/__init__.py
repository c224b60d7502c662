"""Unified telemetry: spans, Chrome-trace export, critical path.

The observability layer every subsystem plugs into.  Producers
(simulator engine, trainer, serving stack, experiment runner) emit
:class:`Span` trees and :class:`~repro.sim.trace.TaskRecord` lists;
consumers turn them into one Chrome-trace JSON (:func:`chrome_trace`,
loadable in Perfetto) and a ranked critical-path report
(:func:`analyze_critical_path`).
"""

from repro.telemetry.chrome_trace import (
    chrome_trace,
    trace_to_json,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.critical_path import (
    CriticalPathReport,
    PathEntry,
    PathStep,
    analyze_critical_path,
    class_deltas,
    format_critical_path,
)
from repro.telemetry.diff import (
    DiffEntry,
    TraceDiff,
    align_records,
    diff_traces,
)
from repro.telemetry.monitor import (
    Alert,
    CacheHealthMonitor,
    MonitorReport,
    OverlapMonitor,
    PrefetchMonitor,
    PulseDetector,
    SkewMonitor,
    SloBurnRateMonitor,
    UtilizationPhase,
    emit_alerts,
)
from repro.telemetry.provenance import (
    RunManifest,
    build_manifest,
    config_fingerprint,
    git_describe,
)
from repro.telemetry.span import ManualClock, Span, Tracer, maybe_span
from repro.telemetry.timeseries import Ewma, Histogram

__all__ = [
    "Alert",
    "CacheHealthMonitor",
    "CriticalPathReport",
    "DiffEntry",
    "Ewma",
    "Histogram",
    "ManualClock",
    "MonitorReport",
    "OverlapMonitor",
    "PathEntry",
    "PathStep",
    "PrefetchMonitor",
    "PulseDetector",
    "RunManifest",
    "SkewMonitor",
    "SloBurnRateMonitor",
    "Span",
    "TraceDiff",
    "Tracer",
    "UtilizationPhase",
    "align_records",
    "analyze_critical_path",
    "build_manifest",
    "chrome_trace",
    "class_deltas",
    "config_fingerprint",
    "diff_traces",
    "emit_alerts",
    "format_critical_path",
    "git_describe",
    "maybe_span",
    "trace_to_json",
    "validate_chrome_trace",
    "write_chrome_trace",
]
