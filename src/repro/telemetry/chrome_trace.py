"""Chrome-trace (``chrome://tracing`` / Perfetto) JSON export.

Everything the telemetry layer collects — tracer spans, engine task
records, resource utilization — serializes to one Trace Event Format
payload that loads directly in Perfetto or ``chrome://tracing``:

* each simulator resource (and each tracer track) becomes a *thread*
  with a ``thread_name`` metadata event;
* every task execution segment / span becomes a complete (``"X"``)
  event with microsecond ``ts``/``dur``;
* per-resource utilization becomes counter (``"C"``) events sampled on
  the metrics bucket grid, rendering as the pulse-like area charts the
  paper reads off DCGM.

The export is a pure function of modeled quantities: same seed, same
bytes.  :func:`validate_chrome_trace` is the schema check the tests
and the CI smoke step share.
"""

from __future__ import annotations

from repro.sim.metrics import DEFAULT_BUCKET_SECONDS, utilization_timeline
from repro.sim.trace import TraceRecorder, canonical_json
from repro.telemetry.span import Tracer

#: Event phases this exporter emits (subset of the Trace Event Format).
_PHASES = ("X", "C", "M", "i")

#: pid used for every event; one simulated worker == one process.
_PID = 0


def _us(seconds: float) -> float:
    """Seconds -> microseconds, rounded to nanosecond grain."""
    return round(seconds * 1e6, 3)


class _TrackTable:
    """Stable track-name -> tid assignment plus metadata events."""

    def __init__(self):
        self._tids: dict = {}

    def tid(self, track: str) -> int:
        if track not in self._tids:
            self._tids[track] = len(self._tids)
        return self._tids[track]

    def metadata_events(self) -> list:
        events = [{
            "name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
            "args": {"name": "repro"},
        }]
        for track, tid in self._tids.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": _PID,
                "tid": tid, "args": {"name": track},
            })
            events.append({
                "name": "thread_sort_index", "ph": "M", "pid": _PID,
                "tid": tid, "args": {"sort_index": tid},
            })
        return events


def _record_events(records: list, tracks: _TrackTable) -> list:
    """Task execution segments as complete events, one lane per resource."""
    events = []
    for record in records:
        for kind, t0, t1 in record.segments:
            event = {
                "name": record.name,
                "cat": kind,
                "ph": "X",
                "ts": _us(t0),
                "dur": _us(t1 - t0),
                "pid": _PID,
                "tid": tracks.tid(kind),
            }
            if record.tags:
                event["args"] = {str(key): str(value)
                                 for key, value in
                                 sorted(record.tags.items())}
            events.append(event)
    return events


def _span_events(tracer: Tracer, tracks: _TrackTable) -> list:
    """Closed tracer spans and instants as trace events."""
    events = []
    for span in tracer.completed_spans():
        event = {
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": _us(span.start),
            "dur": _us(span.duration),
            "pid": _PID,
            "tid": tracks.tid(span.track),
        }
        if span.attrs:
            event["args"] = {str(key): str(value)
                             for key, value in sorted(span.attrs.items())}
        events.append(event)
    for when, name, track, attrs in tracer.instants:
        event = {
            "name": name, "cat": "instant", "ph": "i", "ts": _us(when),
            "pid": _PID, "tid": tracks.tid(track), "s": "t",
        }
        if attrs:
            event["args"] = {str(key): str(value)
                             for key, value in sorted(attrs.items())}
        events.append(event)
    return events


def _counter_events(recorder: TraceRecorder, makespan: float,
                    bucket: float, tracks: _TrackTable) -> list:
    """Per-resource utilization as counter events on the bucket grid."""
    events = []
    for kind in recorder.kinds():
        _times, util = utilization_timeline(recorder, kind, makespan,
                                            bucket)
        name = f"util/{kind.value}"
        tid = tracks.tid(name)
        for index, value in enumerate(util):
            events.append({
                "name": name, "ph": "C", "ts": _us(index * bucket),
                "pid": _PID, "tid": tid,
                "args": {"utilization": round(float(value), 4)},
            })
    return events


def chrome_trace(records: list | None = None,
                 tracer: Tracer | None = None,
                 recorder: TraceRecorder | None = None,
                 makespan: float = 0.0,
                 bucket: float = DEFAULT_BUCKET_SECONDS,
                 metadata: dict | None = None) -> dict:
    """Assemble one Chrome-trace payload from telemetry sources.

    Any subset of sources may be given; events sort by ``(ts, tid,
    name)`` so the payload is byte-stable for deterministic inputs.
    """
    tracks = _TrackTable()
    events: list = []
    if records:
        events.extend(_record_events(records, tracks))
    if tracer is not None:
        events.extend(_span_events(tracer, tracks))
    if recorder is not None and makespan > 0:
        events.extend(_counter_events(recorder, makespan, bucket, tracks))
    events.sort(key=lambda e: (e["ts"], e["tid"], e["name"]))
    payload = {
        "traceEvents": tracks.metadata_events() + events,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }
    return payload


def trace_to_json(payload: dict) -> str:
    """:func:`~repro.sim.trace.canonical_json` without the newline."""
    return canonical_json(payload)[:-1]


def write_chrome_trace(path: str, payload: dict) -> str:
    """Write the payload to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(payload))
    return path


def validate_chrome_trace(payload: dict) -> int:
    """Check a payload against the Trace Event Format requirements.

    Raises :class:`ValueError` on the first violation; returns the
    number of events otherwise.  Shared by the unit tests and the CI
    smoke step, and intentionally strict about the fields Perfetto's
    JSON importer reads (``name``/``ph``/``pid``/``tid``/``ts``).

    Beyond per-event shape it enforces the cross-event invariants the
    diff-overlay payloads rely on: counter events
    keep non-decreasing ``ts`` within their ``(pid, tid, name)``
    track, counters named ``cumulative...`` keep non-decreasing
    values, every pid with events carries ``process_name`` metadata,
    and every ``(pid, tid)`` with events carries ``thread_name``
    metadata.
    """
    if not isinstance(payload, dict):
        raise ValueError("payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents must be a non-empty array")
    named_processes = set()  # pids with a process_name metadata event
    named_threads = set()  # (pid, tid) with a thread_name metadata event
    used_pids: dict = {}  # pid -> first non-M event index
    used_threads: dict = {}  # (pid, tid) -> first non-M event index
    counter_ts: dict = {}  # (pid, tid, name) -> last ts
    counter_values: dict = {}  # (pid, tid, name) -> last args values
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        phase = event.get("ph")
        if phase not in _PHASES:
            raise ValueError(f"{where}: unknown phase {phase!r}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"{where}: missing event name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"{where}: {key} must be an integer")
        if phase == "M":
            if event["name"] == "process_name":
                named_processes.add(event["pid"])
            elif event["name"] == "thread_name":
                named_threads.add((event["pid"], event["tid"]))
            continue
        used_pids.setdefault(event["pid"], index)
        used_threads.setdefault((event["pid"], event["tid"]), index)
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"{where}: ts must be a number >= 0")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where}: dur must be a number >= 0")
        if phase == "C":
            args = event.get("args")
            if not isinstance(args, dict):
                raise ValueError(f"{where}: counter events need args")
            track = (event["pid"], event["tid"], event["name"])
            last_ts = counter_ts.get(track)
            if last_ts is not None and ts < last_ts:
                raise ValueError(
                    f"{where}: counter {event['name']!r} ts {ts} "
                    f"regresses below {last_ts} on its track")
            counter_ts[track] = ts
            if "cumulative" in event["name"]:
                # Cumulative counters (diff overlays and the like)
                # promise value monotonicity, not just ts order.
                previous = counter_values.get(track)
                for key in sorted(args):
                    value = args[key]
                    if not isinstance(value, (int, float)):
                        raise ValueError(
                            f"{where}: cumulative counter "
                            f"{event['name']!r} has non-numeric "
                            f"series {key!r}")
                    if (previous is not None
                            and value < previous.get(key, value)):
                        raise ValueError(
                            f"{where}: cumulative counter "
                            f"{event['name']!r} series {key!r} "
                            f"decreases ({previous[key]} -> {value})")
                counter_values[track] = dict(args)
    for pid, index in sorted(used_pids.items()):
        if pid not in named_processes:
            raise ValueError(
                f"traceEvents[{index}]: pid {pid} has events but no "
                "process_name metadata")
    for (pid, tid), index in sorted(used_threads.items()):
        if (pid, tid) not in named_threads:
            raise ValueError(
                f"traceEvents[{index}]: thread ({pid}, {tid}) has "
                "events but no thread_name metadata")
    return len(events)
