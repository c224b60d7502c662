"""Always-on flight recorder + EWMA/z-score anomaly annotation.

Post-hoc debugging of a shed storm or a stalled hot-swap needs the
last N seconds of context, not a full-run trace nobody enabled.  The
:class:`FlightRecorder` keeps a bounded ring of recent spans, metric
samples and alerts — O(capacity) memory no matter how long the run —
and dumps the retention window as a valid Chrome trace when something
goes wrong: automatically on an alert at or above the trigger
severity, on an exception inside a :meth:`FlightRecorder.watch`
block, or on demand.

Dumps are deterministic artifacts: sequence-numbered filenames (no
timestamps), canonical JSON, events only from the modeled clock — so
they can sit behind the determinism CI like every other telemetry
output.

:class:`AnomalyDetector` is the statistical feeder: an exponentially
weighted mean/variance per timeseries with a z-score trigger, turning
"loss jumped four sigma" into a named ``anomaly`` alert on the same
alerts track the monitors use.
"""

from __future__ import annotations

import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.sim.trace import canonical_json
from repro.telemetry.monitor import Alert

#: Default ring capacity (events, across all types).
DEFAULT_CAPACITY = 2048

#: Alert severities that trigger an automatic dump.
DUMP_SEVERITIES = ("warning", "critical")


@dataclass(frozen=True)
class FlightEvent:
    """One ring entry: a span, sample, alert or exception marker.

    ``time_s`` is the modeled time the event *ended* (spans) or
    occurred (everything else) — retention windows trim on it.
    """

    kind: str  # "span" | "sample" | "alert" | "exception"
    time_s: float
    name: str
    track: str = "flight"
    start_s: float | None = None  # spans only
    value: float | None = None  # samples only
    attrs: dict = field(default_factory=dict)


class FlightRecorder:
    """Bounded ring buffer of recent telemetry, with dump triggers.

    :param capacity: maximum events retained; the ring never grows
        past this, old events fall off the far end (counted in
        :attr:`dropped`).
    :param retention_s: dump window in modeled seconds — a dump keeps
        only events within ``retention_s`` of the trigger time.
        ``None`` dumps the whole ring.
    :param dump_dir: where automatic dumps are written; ``None``
        disables writing (dumps are still built and returned).
    :param trigger_severities: alert severities that auto-dump.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 retention_s: float | None = None,
                 dump_dir: str | None = None,
                 trigger_severities=DUMP_SEVERITIES):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.retention_s = retention_s
        self.dump_dir = dump_dir
        self.trigger_severities = tuple(trigger_severities)
        self._ring: deque = deque(maxlen=capacity)
        self._appended = 0
        self._dump_seq = 0
        self.dump_paths: list = []

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Events that have fallen off the far end of the ring."""
        return self._appended - len(self._ring)

    def events(self) -> list:
        """The ring contents, oldest first."""
        return list(self._ring)

    def _append(self, event: FlightEvent) -> None:
        self._ring.append(event)
        self._appended += 1

    def record_span(self, name: str, start_s: float, end_s: float,
                    track: str = "flight",
                    attrs: dict | None = None) -> None:
        """Retain one completed span."""
        self._append(FlightEvent(kind="span", time_s=end_s, name=name,
                                 track=track, start_s=start_s,
                                 attrs=dict(attrs or {})))

    def record_sample(self, name: str, time_s: float, value: float,
                      track: str = "metrics") -> None:
        """Retain one metric sample (renders as a counter)."""
        self._append(FlightEvent(kind="sample", time_s=time_s,
                                 name=name, track=track,
                                 value=float(value)))

    def record_alert(self, alert: Alert,
                     track: str = "alerts") -> dict | None:
        """Retain an alert; auto-dump if its severity triggers.

        Returns the dump payload when a dump fired, else ``None``.
        """
        self._append(FlightEvent(
            kind="alert", time_s=alert.time_s,
            name=alert.name or f"{alert.monitor}:{alert.severity}",
            track=track,
            attrs={"monitor": alert.monitor,
                   "severity": alert.severity,
                   "message": alert.message,
                   "value": alert.value,
                   "threshold": alert.threshold}))
        if alert.severity in self.trigger_severities:
            return self.dump(reason=f"alert:{alert.name or alert.monitor}",
                             now=alert.time_s)
        return None

    def record_exception(self, time_s: float, error: BaseException,
                         track: str = "alerts") -> dict:
        """Retain an exception marker and dump immediately."""
        self._append(FlightEvent(
            kind="exception", time_s=time_s,
            name=type(error).__name__, track=track,
            attrs={"message": str(error)}))
        return self.dump(reason=f"exception:{type(error).__name__}",
                         now=time_s)

    @contextmanager
    def watch(self, time_s: float = 0.0, label: str = "watch"):
        """Dump-on-exception guard around a code block.

        Records the exception (labelled ``label``), dumps the ring,
        and re-raises — the recorder observes failures, it never
        swallows them.
        """
        try:
            yield self
        except Exception as error:
            self._append(FlightEvent(
                kind="exception", time_s=time_s, name=label,
                track="alerts",
                attrs={"error": type(error).__name__,
                       "message": str(error)}))
            self.dump(reason=f"exception:{label}", now=time_s)
            raise

    def window(self, now: float | None = None) -> list:
        """Ring events within the retention window ending at ``now``."""
        events = self.events()
        if self.retention_s is None:
            return events
        if now is None:
            now = max((event.time_s for event in events), default=0.0)
        horizon = now - self.retention_s
        return [event for event in events if event.time_s >= horizon]

    def dump(self, reason: str = "manual",
             now: float | None = None) -> dict:
        """Build (and optionally write) a Chrome-trace dump.

        The payload passes :func:`~repro.telemetry.chrome_trace.
        validate_chrome_trace`; ``otherData`` carries the trigger
        reason, the retention settings and the drop counter so a
        truncated view is never mistaken for the whole story.
        """
        from repro.telemetry.chrome_trace import validate_chrome_trace
        window = self.window(now)
        tids: dict = {}
        events: list = []
        for event in window:
            if event.track not in tids:
                tids[event.track] = len(tids)
            tid = tids[event.track]
            if event.kind == "span":
                start = event.start_s or 0.0
                events.append({
                    "name": event.name, "cat": "span", "ph": "X",
                    "ts": _us(start),
                    "dur": _us(max(0.0, event.time_s - start)),
                    "pid": 0, "tid": tid,
                    "args": {str(key): str(value) for key, value
                             in sorted(event.attrs.items())},
                })
            elif event.kind == "sample":
                events.append({
                    "name": event.name, "ph": "C",
                    "ts": _us(event.time_s), "pid": 0, "tid": tid,
                    "args": {"value": event.value},
                })
            else:  # alert / exception markers
                events.append({
                    "name": event.name, "cat": event.kind, "ph": "i",
                    "ts": _us(event.time_s), "pid": 0, "tid": tid,
                    "s": "t",
                    "args": {str(key): str(value) for key, value
                             in sorted(event.attrs.items())},
                })
        events.sort(key=lambda e: (e["ts"], e["tid"], e["name"]))
        metadata = [{"name": "process_name", "ph": "M", "pid": 0,
                     "tid": 0, "args": {"name": "flight"}}]
        for track, tid in tids.items():
            metadata.append({"name": "thread_name", "ph": "M",
                             "pid": 0, "tid": tid,
                             "args": {"name": track}})
        if not events:
            # A dump must stay a valid trace even when the window is
            # empty — a marker instant records the trigger.
            metadata.append({"name": "thread_name", "ph": "M",
                             "pid": 0, "tid": 0,
                             "args": {"name": "flight"}})
            events = [{"name": f"dump:{reason}", "cat": "dump",
                       "ph": "i", "ts": 0.0, "pid": 0, "tid": 0,
                       "s": "t"}]
        payload = {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": {
                "flight": {
                    "reason": reason,
                    "retention_s": self.retention_s,
                    "capacity": self.capacity,
                    "window_events": len(window),
                    "dropped": self.dropped,
                },
            },
        }
        validate_chrome_trace(payload)
        if self.dump_dir is not None:
            import os
            os.makedirs(self.dump_dir, exist_ok=True)
            slug = "".join(ch if ch.isalnum() or ch in "-_" else "_"
                           for ch in reason)
            path = os.path.join(
                self.dump_dir,
                f"flight_{self._dump_seq:03d}_{slug}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(canonical_json(payload))
            self.dump_paths.append(path)
        self._dump_seq += 1
        return payload


def _us(seconds: float) -> float:
    """Seconds -> microseconds, rounded to nanosecond grain."""
    return round(seconds * 1e6, 3)


class AnomalyDetector:
    """EWMA mean/deviation z-score detector for one timeseries.

    Maintains exponentially weighted estimates of a series' mean and
    variance; :meth:`observe` returns a named ``anomaly``
    :class:`~repro.telemetry.monitor.Alert` when a sample lands more
    than ``z_threshold`` deviations from the running mean (after a
    warmup, so the first noisy samples don't all alarm).
    """

    def __init__(self, name: str, alpha: float = 0.2,
                 z_threshold: float = 3.0, warmup: int = 8,
                 severity: str = "warning"):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if z_threshold <= 0:
            raise ValueError(
                f"z_threshold must be > 0, got {z_threshold}")
        self.name = name
        self.alpha = alpha
        self.z_threshold = z_threshold
        self.warmup = warmup
        self.severity = severity
        self._mean = 0.0
        self._var = 0.0
        self._count = 0

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def deviation(self) -> float:
        return math.sqrt(max(0.0, self._var))

    def score(self, value: float) -> float:
        """The z-score ``value`` would get, without updating state."""
        deviation = self.deviation
        if self._count < self.warmup or deviation <= 1e-12:
            return 0.0
        return (value - self._mean) / deviation

    def observe(self, time_s: float, value: float) -> Alert | None:
        """Feed one sample; returns an alert when it is anomalous.

        Anomalous samples do *not* update the running estimates —
        otherwise a level shift would drag the mean toward itself and
        silence the very alarms it should keep raising.
        """
        value = float(value)
        z = self.score(value)
        if abs(z) > self.z_threshold:
            return Alert(
                time_s=time_s, monitor=self.name,
                severity=self.severity,
                message=(f"{self.name} = {value:.6g} is {z:+.1f} sigma "
                         f"from EWMA mean {self._mean:.6g}"),
                value=value, threshold=self.z_threshold,
                name="anomaly")
        if self._count == 0:
            self._mean = value
        else:
            delta = value - self._mean
            self._mean += self.alpha * delta
            self._var = ((1.0 - self.alpha)
                         * (self._var + self.alpha * delta * delta))
        self._count += 1
        return None


def annotate_timeseries(detector: AnomalyDetector, samples) -> list:
    """Run a detector over ``(time_s, value)`` samples; collect alerts."""
    alerts = []
    for time_s, value in samples:
        alert = detector.observe(time_s, value)
        if alert is not None:
            alerts.append(alert)
    return alerts
