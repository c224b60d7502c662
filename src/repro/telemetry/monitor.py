"""Run-health monitors: derived signals + threshold alerts over a run.

The spans/records layer answers "what happened"; this module answers
"was the run healthy".  Each monitor reduces one raw telemetry stream
to a :class:`MonitorReport` — a small JSON-ready summary plus zero or
more threshold :class:`Alert`\\ s — so benchmark snapshots and CI gates
can assert on run *health*, not just run *speed*:

* :class:`PulseDetector` segments the resource-utilization timeline
  into memory-bound / compute-bound / idle phases, turning the paper's
  Fig. 4/5 "GPU utilization pulses" narrative into a measurable
  artifact (phase counts, alternations, idle fraction);
* :class:`OverlapMonitor` quantifies how much communication time was
  hidden behind compute — overall and per K-Interleaving group — which
  is Eq. 3's effectiveness as a single ratio;
* :class:`CacheHealthMonitor` watches a HybridHash / multi-level
  cache's per-iteration hit-ratio stream (EWMA level, flush
  effectiveness around ``flush_iters``);
* :class:`SloBurnRateMonitor` converts serving completions into
  windowed SLO-violation burn rates against an error budget;
* :class:`SkewMonitor` reduces per-worker AllToAllv shard bytes (an
  :class:`~repro.embedding.placement.ExchangeLoad`) to the max/mean
  ratio that gates every exchange, alerting when hot-ID skew leaves
  one shard dominating the collective.

:func:`emit_alerts` injects the alerts into a
:class:`~repro.telemetry.span.Tracer` as instant events, so they show
up on the Chrome trace exactly where the run went unhealthy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.metrics import (
    DEFAULT_BUCKET_SECONDS,
    intersect_seconds,
    merge_intervals,
    merged_busy_intervals,
    utilization_timeline,
)
from repro.sim.resource import (
    COMMUNICATION_KINDS,
    COMPUTE_KINDS,
    EXECUTION_KINDS,
    MEMORY_KINDS,
)
from repro.embedding.placement import max_mean_ratio
from repro.telemetry.timeseries import Ewma

#: Track name alert instants are filed under in the Chrome trace.
ALERT_TRACK = "alerts"


@dataclass(frozen=True)
class Alert:
    """One threshold crossing, anchored to a moment of the run.

    :param name: stable machine-readable identifier (``low_overlap``,
        ``anomaly``, ...) for tooling that must not parse the human
        message; empty for alerts predating names.
    :param data: structured figures backing the message (e.g. the
        exposed-seconds behind a ``low_overlap`` alert), so downstream
        consumers read numbers instead of regexing prose.
    """

    time_s: float
    monitor: str
    severity: str  # "info" | "warning" | "critical"
    message: str
    value: float
    threshold: float
    name: str = ""
    data: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "time_s": self.time_s,
            "monitor": self.monitor,
            "severity": self.severity,
            "message": self.message,
            "value": self.value,
            "threshold": self.threshold,
            "name": self.name,
            "data": dict(self.data),
        }


@dataclass(frozen=True)
class MonitorReport:
    """One monitor's verdict on a run: summary numbers + alerts."""

    monitor: str
    healthy: bool
    summary: dict
    alerts: tuple = ()

    def as_dict(self) -> dict:
        return {
            "monitor": self.monitor,
            "healthy": self.healthy,
            "summary": dict(self.summary),
            "alerts": [alert.as_dict() for alert in self.alerts],
        }


@dataclass(frozen=True)
class UtilizationPhase:
    """One contiguous stretch of the run with a single dominant class."""

    label: str  # "memory-bound" | "compute-bound" | "idle"
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"label": self.label, "start": self.start, "end": self.end}


def _max_utilization(recorder, kinds, makespan: float, bucket: float):
    """Element-wise max of per-kind utilization timelines."""
    combined = None
    known = set(recorder.kinds())
    for kind in sorted(kinds, key=lambda k: k.value):
        if kind not in known:
            continue
        _times, utilization = utilization_timeline(
            recorder, kind, makespan, bucket)
        if combined is None:
            combined = utilization.copy()
        else:
            for index in range(len(combined)):
                if utilization[index] > combined[index]:
                    combined[index] = utilization[index]
    return combined


class PulseDetector:
    """Segments a run into memory-bound / compute-bound / idle phases.

    Per bucket, the memory level is the max utilization across
    :data:`MEMORY_KINDS` and the compute level the max across
    :data:`COMPUTE_KINDS`; a bucket below ``idle_threshold`` on both is
    idle, otherwise the higher class wins.  Consecutive same-label
    buckets merge into one :class:`UtilizationPhase` — the "pulses" of
    the paper's Fig. 4/5, where embedding (memory) and dense (compute)
    stages alternate within every iteration.
    """

    name = "pulse"

    def __init__(self, bucket: float = DEFAULT_BUCKET_SECONDS,
                 idle_threshold: float = 0.05,
                 max_idle_fraction: float = 0.5):
        if bucket <= 0:
            raise ValueError(f"bucket must be > 0, got {bucket}")
        self.bucket = float(bucket)
        self.idle_threshold = float(idle_threshold)
        self.max_idle_fraction = float(max_idle_fraction)

    def phases(self, recorder, makespan: float) -> list:
        """The run as an ordered list of :class:`UtilizationPhase`."""
        if makespan <= 0:
            return []
        memory = _max_utilization(
            recorder, MEMORY_KINDS, makespan, self.bucket)
        compute = _max_utilization(
            recorder, COMPUTE_KINDS, makespan, self.bucket)
        if memory is None and compute is None:
            return [UtilizationPhase("idle", 0.0, makespan)]
        length = len(memory) if memory is not None else len(compute)
        labels = []
        for index in range(length):
            mem = float(memory[index]) if memory is not None else 0.0
            comp = float(compute[index]) if compute is not None else 0.0
            if mem < self.idle_threshold and comp < self.idle_threshold:
                labels.append("idle")
            elif mem >= comp:
                labels.append("memory-bound")
            else:
                labels.append("compute-bound")
        phases = []
        start = 0
        for index in range(1, length + 1):
            if index == length or labels[index] != labels[start]:
                phases.append(UtilizationPhase(
                    label=labels[start],
                    start=start * self.bucket,
                    end=min(index * self.bucket, makespan)))
                start = index
        return phases

    def analyze(self, recorder, makespan: float) -> MonitorReport:
        """Phase statistics + an idle-fraction alert."""
        phases = self.phases(recorder, makespan)
        counts = {"memory-bound": 0, "compute-bound": 0, "idle": 0}
        durations = {"memory-bound": 0.0, "compute-bound": 0.0, "idle": 0.0}
        for phase in phases:
            counts[phase.label] += 1
            durations[phase.label] += phase.duration
        # Alternations: memory<->compute flips, idle gaps ignored —
        # the pulse count of Fig. 4.
        bound = [p for p in phases if p.label != "idle"]
        alternations = sum(
            1 for prev, cur in zip(bound, bound[1:])
            if prev.label != cur.label)
        total = sum(durations.values())
        idle_fraction = durations["idle"] / total if total > 0 else 1.0
        alerts = []
        if idle_fraction > self.max_idle_fraction:
            longest_idle = max(
                (p for p in phases if p.label == "idle"),
                key=lambda p: p.duration,
                default=UtilizationPhase("idle", 0.0, 0.0))
            alerts.append(Alert(
                time_s=longest_idle.start,
                monitor=self.name,
                severity="warning",
                message=(f"idle fraction {idle_fraction:.1%} exceeds "
                         f"{self.max_idle_fraction:.1%}"),
                value=idle_fraction,
                threshold=self.max_idle_fraction))
        summary = {
            "num_phases": len(phases),
            "memory_phases": counts["memory-bound"],
            "compute_phases": counts["compute-bound"],
            "idle_phases": counts["idle"],
            "alternations": alternations,
            "memory_seconds": durations["memory-bound"],
            "compute_seconds": durations["compute-bound"],
            "idle_seconds": durations["idle"],
            "idle_fraction": idle_fraction,
        }
        return MonitorReport(
            monitor=self.name,
            healthy=not alerts,
            summary=summary,
            alerts=tuple(alerts))


class OverlapMonitor:
    """How much synchronous communication the run hid behind execution.

    The overlap ratio is (seconds during which synchronous
    communication and kernel execution were simultaneously busy) /
    (seconds during which synchronous communication was busy at all):
    1.0 means every transferred byte was hidden, 0.0 means
    communication fully serialized with execution.

    "Execution" is :data:`~repro.sim.resource.EXECUTION_KINDS`:
    compute units plus the memory channels that memory-bound kernels
    keep busy.  Eq. 3 hides one group's exchange behind *other*
    groups' compute **and** memory ops, so a gather's fetch interval
    abutting an MLP's compute interval is one continuous busy span for
    hiding purposes — counting only ``GPU_SM``/``CPU`` (the old
    behaviour) dropped every such junction and systematically
    under-credited the schedule.

    With task records available, the background prefetch stream's own
    wire time is excluded from the denominator — the stream exists to
    be off the synchronous path, and its exposure is
    :class:`PrefetchMonitor`'s metric, not this one's — and the same
    ratio is reported per K-Interleaving group (``tags["group"]``),
    exposing which packed embedding groups the schedule actually
    pipelines.
    """

    name = "overlap"

    def __init__(self, min_overlap_ratio: float = 0.1,
                 execution_kinds=EXECUTION_KINDS):
        self.min_overlap_ratio = float(min_overlap_ratio)
        self.execution_kinds = frozenset(execution_kinds)

    @staticmethod
    def _comm_values():
        return {kind.value for kind in COMMUNICATION_KINDS}

    def _sync_comm_spans(self, recorder, records) -> list:
        """Merged busy spans of non-background communication.

        Falls back to all-comm busy time when no task records are
        available (recorder timelines cannot attribute segments to the
        ops that drove them).
        """
        if records is None:
            return merged_busy_intervals(recorder, COMMUNICATION_KINDS)
        comm_values = self._comm_values()
        spans = []
        for record in records:
            if record.tags.get("layer") == "prefetch":
                continue
            for kind_value, t0, t1 in record.segments:
                if kind_value in comm_values and t1 > t0:
                    spans.append((t0, t1))
        return merge_intervals(spans)

    def group_ratios(self, recorder, records) -> dict:
        """Per-group overlap ratio from task-record comm segments."""
        comm_values = self._comm_values()
        execution_spans = merged_busy_intervals(recorder,
                                                self.execution_kinds)
        group_comm: dict = {}
        for record in records:
            if record.tags.get("layer") == "prefetch":
                continue
            group = record.tags.get("group")
            if group is None:
                continue
            for kind_value, t0, t1 in record.segments:
                if kind_value in comm_values and t1 > t0:
                    group_comm.setdefault(str(group), []).append((t0, t1))
        ratios = {}
        for group in sorted(group_comm):
            spans = merge_intervals(group_comm[group])
            comm_total = sum(t1 - t0 for t0, t1 in spans)
            if comm_total <= 0:
                continue
            hidden = intersect_seconds(spans, execution_spans)
            ratios[group] = hidden / comm_total
        return ratios

    def analyze(self, recorder, makespan: float,
                records=None) -> MonitorReport:
        """Overall + per-group overlap ratios and an exposure alert."""
        comm_spans = self._sync_comm_spans(recorder, records)
        comm_total = sum(t1 - t0 for t0, t1 in comm_spans)
        hidden = intersect_seconds(
            comm_spans,
            merged_busy_intervals(recorder, self.execution_kinds))
        ratio = hidden / comm_total if comm_total > 0 else 0.0
        alerts = []
        if comm_total > 0 and ratio < self.min_overlap_ratio:
            # Anchor the alert where the largest fully-exposed comm
            # span starts (the most visible Eq. 3 failure).
            alerts.append(Alert(
                time_s=comm_spans[0][0],
                monitor=self.name,
                severity="warning",
                message=(f"comm/execution overlap {ratio:.1%} below "
                         f"{self.min_overlap_ratio:.1%}; "
                         f"{comm_total - hidden:.4f}s of communication "
                         "exposed"),
                value=ratio,
                threshold=self.min_overlap_ratio,
                name="low_overlap",
                data={"exposed_seconds": comm_total - hidden,
                      "comm_seconds": comm_total,
                      "overlapped_seconds": hidden}))
        summary = {
            "comm_seconds": comm_total,
            "overlapped_seconds": hidden,
            "exposed_seconds": comm_total - hidden,
            "overlap_ratio": ratio,
        }
        if records is not None:
            group_ratios = self.group_ratios(recorder, records)
            summary["group_overlap_ratios"] = group_ratios
            summary["num_groups"] = len(group_ratios)
        return MonitorReport(
            monitor=self.name,
            healthy=not alerts,
            summary=summary,
            alerts=tuple(alerts))


class PrefetchMonitor:
    """Exposure of the hot/cold background prefetch stream.

    The stream's whole purpose is to fetch cold embedding rows while
    foreground kernels run (Hotline, arXiv 2204.05436); its health
    signal is therefore *exposed-fetch seconds* — stream busy time
    during which no foreground op was executing, i.e. fetch latency
    the lookahead failed to hide.  Stream ops are identified by
    ``tags["layer"] == "prefetch"``; foreground spans are every other
    op's busy segments on any resource.  Per-group exposure pinpoints
    which packed embedding group's staging runs ahead of (or behind)
    the pipeline.
    """

    name = "prefetch"

    def __init__(self, max_exposed_fraction: float = 0.5):
        self.max_exposed_fraction = float(max_exposed_fraction)

    @staticmethod
    def _spans(records, predicate) -> list:
        spans = []
        for record in records:
            if not predicate(record):
                continue
            for _kind, t0, t1 in record.segments:
                if t1 > t0:
                    spans.append((t0, t1))
        return merge_intervals(spans)

    def analyze(self, recorder, makespan: float,
                records=None) -> MonitorReport:
        """Stream exposure summary + a poorly-hidden-stream alert."""
        records = records or ()
        stream = self._spans(
            records, lambda r: r.tags.get("layer") == "prefetch")
        foreground = self._spans(
            records, lambda r: r.tags.get("layer") != "prefetch")
        fetch_total = sum(t1 - t0 for t0, t1 in stream)
        hidden = intersect_seconds(stream, foreground)
        exposed = fetch_total - hidden
        ratio = hidden / fetch_total if fetch_total > 0 else 0.0
        per_group: dict = {}
        for record in records:
            if record.tags.get("layer") != "prefetch":
                continue
            group = str(record.tags.get("group", "?"))
            spans = merge_intervals(
                [(t0, t1) for _k, t0, t1 in record.segments if t1 > t0])
            busy = sum(t1 - t0 for t0, t1 in spans)
            prev_busy, prev_hidden = per_group.get(group, (0.0, 0.0))
            per_group[group] = (
                prev_busy + busy,
                prev_hidden + intersect_seconds(spans, foreground))
        alerts = []
        if fetch_total > 0 and exposed / fetch_total \
                > self.max_exposed_fraction:
            alerts.append(Alert(
                time_s=stream[0][0],
                monitor=self.name,
                severity="warning",
                message=(f"prefetch stream {exposed / fetch_total:.1%} "
                         f"exposed (> {self.max_exposed_fraction:.1%}); "
                         f"{exposed:.4f}s of staging ran with the "
                         "foreground pipeline idle"),
                value=exposed / fetch_total,
                threshold=self.max_exposed_fraction,
                name="exposed_prefetch",
                data={"exposed_fetch_seconds": exposed,
                      "prefetch_seconds": fetch_total,
                      "overlapped_seconds": hidden}))
        summary = {
            "prefetch_seconds": fetch_total,
            "overlapped_seconds": hidden,
            "exposed_fetch_seconds": exposed,
            "overlap_ratio": ratio,
            "group_exposure": {
                group: {"busy_seconds": busy,
                        "exposed_seconds": busy - hid}
                for group, (busy, hid) in sorted(per_group.items())},
        }
        return MonitorReport(
            monitor=self.name,
            healthy=not alerts,
            summary=summary,
            alerts=tuple(alerts))


class CacheHealthMonitor:
    """Health of a hot/cold cache from its per-iteration hit stream.

    Consumes the ``hit_history`` / ``flush_history`` a
    :class:`~repro.embedding.hybrid_hash.HybridHash` (or
    :class:`~repro.embedding.multilevel.MultiLevelCache`) accumulates:
    the EWMA-smoothed hit level is the thresholded health signal, and
    each flush's effectiveness is the mean hit-ratio change across a
    window around the flush — Algorithm 1's refresh should pay for
    itself; a persistently negative delta means ``flush_iters`` churns
    a hot set that was already right.
    """

    name = "cache"

    def __init__(self, alpha: float = 0.2, min_hit_ratio: float = 0.3,
                 flush_window: int = 10):
        if flush_window < 1:
            raise ValueError(
                f"flush_window must be >= 1, got {flush_window}")
        self.alpha = float(alpha)
        self.min_hit_ratio = float(min_hit_ratio)
        self.flush_window = int(flush_window)

    def flush_effects(self, cache) -> list:
        """Mean hit-ratio delta (after - before) around each flush."""
        history = cache.hit_history
        warmup = cache.warmup_iters
        window = self.flush_window
        effects = []
        for flush_iteration in cache.flush_history:
            pivot = flush_iteration - warmup
            before = history[max(0, pivot - window):pivot]
            after = history[pivot:pivot + window]
            if not before or not after:
                continue
            effects.append(sum(after) / len(after)
                           - sum(before) / len(before))
        return effects

    def analyze(self, cache) -> MonitorReport:
        """EWMA hit level, flush effectiveness, low-hit alert."""
        history = cache.hit_history
        ewma = Ewma(alpha=self.alpha)
        low = float("inf")
        for ratio in history:
            ewma.update(ratio)
            low = min(low, ratio)
        effects = self.flush_effects(cache)
        level = ewma.value if ewma.value is not None else 0.0
        alerts = []
        if history and level < self.min_hit_ratio:
            alerts.append(Alert(
                time_s=float(cache.iteration),
                monitor=self.name,
                severity="warning",
                message=(f"EWMA hit ratio {level:.1%} below "
                         f"{self.min_hit_ratio:.1%} after "
                         f"{cache.iteration} iterations"),
                value=level,
                threshold=self.min_hit_ratio))
        summary = {
            "iterations": cache.iteration,
            "observed_iterations": len(history),
            "ewma_hit_ratio": level,
            "min_hit_ratio": low if history else 0.0,
            "final_hit_ratio": history[-1] if history else 0.0,
            "flushes": len(cache.flush_history),
            "measured_flush_effects": len(effects),
            "mean_flush_effect": (sum(effects) / len(effects)
                                  if effects else 0.0),
        }
        return MonitorReport(
            monitor=self.name,
            healthy=not alerts,
            summary=summary,
            alerts=tuple(alerts))


class SloBurnRateMonitor:
    """Windowed SLO-violation burn rate for a serving run.

    Completions are bucketed onto ``window_s`` windows; a window's burn
    rate is its violation fraction (latency > SLO, plus shed requests
    counted as violations) divided by the error ``budget``.  A burn
    rate of 1.0 consumes the budget exactly; sustained rates above
    ``max_burn_rate`` raise alerts anchored at the offending window.
    """

    name = "slo"

    def __init__(self, slo_ms: float, budget: float = 0.01,
                 window_s: float = 0.05, max_burn_rate: float = 1.0):
        if slo_ms <= 0:
            raise ValueError(f"slo_ms must be > 0, got {slo_ms}")
        if not 0.0 < budget < 1.0:
            raise ValueError(f"budget must be in (0, 1), got {budget}")
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        self.slo_ms = float(slo_ms)
        self.budget = float(budget)
        self.window_s = float(window_s)
        self.max_burn_rate = float(max_burn_rate)

    def analyze(self, metrics) -> MonitorReport:
        """Reduce a :class:`~repro.serving.metrics.ServingMetrics`."""
        slo_s = self.slo_ms * 1e-3
        events = [(when, 1 if latency > slo_s else 0)
                  for when, latency in metrics.completed_requests()]
        events.extend((when, 1) for when in metrics.shed_times())
        windows: dict = {}  # index -> [violations, total]
        for when, violated in events:
            index = int(when // self.window_s)
            window = windows.setdefault(index, [0, 0])
            window[0] += violated
            window[1] += 1
        total = sum(count for _v, count in windows.values())
        violations = sum(v for v, _count in windows.values())
        overall_rate = ((violations / total) / self.budget
                        if total else 0.0)
        alerts = []
        worst_rate = 0.0
        worst_index = None
        for index in sorted(windows):
            v, count = windows[index]
            rate = (v / count) / self.budget
            if rate > worst_rate:
                worst_rate = rate
                worst_index = index
            if rate > self.max_burn_rate:
                alerts.append(Alert(
                    time_s=index * self.window_s,
                    monitor=self.name,
                    severity=("critical" if rate > 10 * self.max_burn_rate
                              else "warning"),
                    message=(f"burn rate {rate:.1f}x budget in window "
                             f"[{index * self.window_s:.3f}s, "
                             f"{(index + 1) * self.window_s:.3f}s): "
                             f"{v}/{count} requests over "
                             f"{self.slo_ms:g}ms SLO"),
                    value=rate,
                    threshold=self.max_burn_rate))
        summary = {
            "slo_ms": self.slo_ms,
            "budget": self.budget,
            "requests": total,
            "violations": violations,
            "overall_burn_rate": overall_rate,
            "worst_burn_rate": worst_rate,
            "worst_window_start_s": (worst_index * self.window_s
                                     if worst_index is not None else 0.0),
            "alert_windows": len(alerts),
        }
        return MonitorReport(
            monitor=self.name,
            healthy=not alerts,
            summary=summary,
            alerts=tuple(alerts))


class SkewMonitor:
    """Shard-load balance of the embedding AllToAllv exchange.

    Consumes per-worker exchange bytes — an
    :class:`~repro.embedding.placement.ExchangeLoad` (measured by
    :func:`~repro.embedding.placement.measure_exchange`) or any
    per-worker byte sequence — and reports the max/mean shard-bytes
    ratio.  The collective completes when its most-loaded shard does,
    so a ratio of 2.0 means the exchange runs at half the balanced
    throughput; ratios above ``max_ratio`` raise an alert naming the
    hottest worker.
    """

    name = "skew"

    def __init__(self, max_ratio: float = 1.5):
        if max_ratio < 1.0:
            raise ValueError(
                f"max_ratio must be >= 1.0, got {max_ratio}")
        self.max_ratio = float(max_ratio)

    def analyze(self, load, time_s: float = 0.0) -> MonitorReport:
        """Reduce one exchange load to balance numbers + skew alert."""
        per_worker = [float(value) for value in
                      getattr(load, "per_worker_bytes", load)]
        ratio = max_mean_ratio(per_worker)
        max_bytes = max(per_worker) if per_worker else 0.0
        total = sum(per_worker)
        mean = total / len(per_worker) if per_worker else 0.0
        hottest = per_worker.index(max_bytes) if per_worker else -1
        alerts = []
        if ratio > self.max_ratio:
            alerts.append(Alert(
                time_s=float(time_s),
                monitor=self.name,
                severity=("critical" if ratio > 2 * self.max_ratio
                          else "warning"),
                message=(f"shard-bytes max/mean {ratio:.2f} exceeds "
                         f"{self.max_ratio:.2f}: worker {hottest} "
                         f"carries {max_bytes:.0f} of "
                         f"{total:.0f} exchanged bytes"),
                value=ratio,
                threshold=self.max_ratio))
        summary = {
            "workers": len(per_worker),
            "total_bytes": total,
            "max_bytes": max_bytes,
            "mean_bytes": mean,
            "max_mean_ratio": ratio,
            "hottest_worker": hottest,
            "local_bytes": float(getattr(load, "local_bytes", 0.0)),
            "replicated_bytes": float(
                getattr(load, "replicated_bytes", 0.0)),
        }
        return MonitorReport(
            monitor=self.name,
            healthy=not alerts,
            summary=summary,
            alerts=tuple(alerts))


def emit_alerts(tracer, reports) -> int:
    """File every alert as an instant event on ``tracer``.

    Returns the number of instants emitted; alert attributes survive
    into the Chrome trace's ``args``.
    """
    emitted = 0
    for report in reports:
        for alert in report.alerts:
            extra = {"alert": alert.name} if alert.name else {}
            tracer.instant(
                f"{alert.monitor}:{alert.severity}",
                timestamp=alert.time_s,
                track=ALERT_TRACK,
                message=alert.message,
                value=alert.value,
                threshold=alert.threshold,
                **extra)
            emitted += 1
    return emitted
