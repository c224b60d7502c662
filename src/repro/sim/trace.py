"""Execution traces: who used which resource, when, and how hard.

The engine logs one interval per simulation event; each interval stores
the rate every resource sustained during it.  Metrics (SM-utilization
CDFs, bandwidth timelines, worker-side breakdowns) are derived from the
interval log afterwards, mirroring how the paper samples DCGM counters
at 10 ms granularity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.sim.resource import (
    COMMUNICATION_KINDS,
    COMPUTE_KINDS,
    MEMORY_KINDS,
    ResourceKind,
)

#: Bump when the frozen-trace JSON layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1


def canonical_json(payload: dict) -> str:
    """Deterministic JSON: sorted keys, fixed separators, newline EOF.

    The one serialization of every artifact that is byte-compared:
    bench snapshots, frozen traces, diff reports and Chrome traces.
    """
    return json.dumps(payload, sort_keys=True, indent=1,
                      separators=(",", ": ")) + "\n"


@dataclass(frozen=True)
class TaskRecord:
    """One executed task, as the engine saw it (telemetry's raw feed).

    Produced by :meth:`~repro.sim.engine.Engine.run` when asked to
    record tasks; consumed by :mod:`repro.telemetry.chrome_trace` (one
    trace event per execution segment) and
    :mod:`repro.telemetry.critical_path` (dependency walk).

    :param preds: names of the tasks this one waited for.
    :param segments: ``(resource_kind_value, t0, t1)`` execution
        segments, one per phase occupancy; time between ``start`` and
        the first segment (or between segments) is queueing.
    """

    name: str
    start: float
    end: float
    preds: tuple = ()
    tags: dict = field(default_factory=dict)
    segments: tuple = ()

    @property
    def duration(self) -> float:
        """Wall (modeled) time from ready-and-admitted to finished."""
        return self.end - self.start

    def resource_seconds(self) -> dict:
        """Execution seconds per resource kind value, summed."""
        totals: dict = {}
        for kind, t0, t1 in self.segments:
            totals[kind] = totals.get(kind, 0.0) + (t1 - t0)
        return totals

    @property
    def wait_seconds(self) -> float:
        """Time spent queued rather than executing."""
        executing = sum(t1 - t0 for _kind, t0, t1 in self.segments)
        return max(0.0, self.duration - executing)

    def as_dict(self) -> dict:
        """Lossless plain-dict form; round-trips via :meth:`from_dict`."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "preds": list(self.preds),
            "tags": dict(self.tags),
            "segments": [[kind, t0, t1]
                         for kind, t0, t1 in self.segments],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TaskRecord":
        """Rebuild a record from :meth:`as_dict` output."""
        return cls(
            name=payload["name"],
            start=payload["start"],
            end=payload["end"],
            preds=tuple(payload.get("preds", ())),
            tags=dict(payload.get("tags", {})),
            segments=tuple((kind, t0, t1)
                           for kind, t0, t1
                           in payload.get("segments", ())))


@dataclass(frozen=True)
class FrozenTrace:
    """A recorded task DAG, frozen for offline what-if replay.

    Bundles the :class:`TaskRecord` list of one engine run with its
    makespan and free-form metadata (typically the workload config and
    headline metrics), and serializes byte-deterministically: saving
    the same run twice yields identical files, so replay artifacts can
    sit behind the determinism CI gate.
    """

    records: tuple
    makespan: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.records, tuple):
            object.__setattr__(self, "records", tuple(self.records))

    def __len__(self) -> int:
        return len(self.records)

    def as_dict(self) -> dict:
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "makespan": self.makespan,
            "metadata": dict(self.metadata),
            "records": [record.as_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FrozenTrace":
        version = payload.get("schema_version")
        if version != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"frozen trace schema v{version} != supported "
                f"v{TRACE_SCHEMA_VERSION}; re-record the trace")
        return cls(
            records=tuple(TaskRecord.from_dict(record)
                          for record in payload.get("records", ())),
            makespan=payload["makespan"],
            metadata=dict(payload.get("metadata", {})))

    def dumps(self) -> str:
        """Canonical JSON: sorted keys, fixed separators, newline EOF.

        Record *order* is load-bearing (it is the engine's completion
        order, which the replayer relies on as a topological order),
        so records stay a list; only dict keys are sorted.
        """
        return canonical_json(self.as_dict())

    def save(self, path: str) -> str:
        """Write the canonical JSON to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())
        return path

    @classmethod
    def load(cls, path: str) -> "FrozenTrace":
        """Read a trace written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


@dataclass
class ResourceTrace:
    """Accumulated usage of one resource over a run."""

    kind: ResourceKind
    capacity: float
    busy_seconds: float = 0.0
    work_done: float = 0.0
    #: list of (t0, t1, used_rate) covering only intervals with rate > 0.
    segments: list = field(default_factory=list)

    def utilization(self, makespan: float) -> float:
        """Mean fraction of capacity used over ``makespan`` seconds."""
        if makespan <= 0:
            return 0.0
        return min(1.0, self.work_done / (self.capacity * makespan))


class TraceRecorder:
    """Collects per-interval resource usage during a simulation run."""

    def __init__(self, capacities: dict):
        self._traces = {
            kind: ResourceTrace(kind=kind, capacity=capacity)
            for kind, capacity in capacities.items()
        }

    def add_interval(self, t0: float, t1: float, rates: dict) -> None:
        """Log one simulation interval.

        :param rates: mapping of :class:`ResourceKind` to the total rate
            sustained on that resource during ``[t0, t1)``.
        """
        dt = t1 - t0
        if dt <= 0:
            return
        for kind, rate in rates.items():
            if rate <= 0:
                continue
            trace = self._traces[kind]
            trace.busy_seconds += dt
            trace.work_done += rate * dt
            trace.segments.append((t0, t1, rate))

    def trace(self, kind: ResourceKind) -> ResourceTrace:
        """The accumulated trace for ``kind`` (empty trace if unused)."""
        return self._traces[kind]

    def kinds(self) -> list:
        """Resource kinds known to this recorder."""
        return list(self._traces)

    def union_busy_seconds(self, kinds) -> float:
        """Total time during which *any* of ``kinds`` was active.

        This is the DCGM-style "GPU busy" metric: a GPU counts as
        utilized while any kernel (compute or memory-bound) is
        resident, so the union of SM and HBM activity reproduces the
        paper's measured SM utilization.
        """
        intervals = []
        for kind in kinds:
            trace = self._traces.get(kind)
            if trace is None:
                continue
            intervals.extend((t0, t1) for t0, t1, _rate in trace.segments)
        if not intervals:
            return 0.0
        intervals.sort()
        total = 0.0
        current_start, current_end = intervals[0]
        for t0, t1 in intervals[1:]:
            if t0 > current_end:
                total += current_end - current_start
                current_start, current_end = t0, t1
            else:
                current_end = max(current_end, t1)
        total += current_end - current_start
        return total

    def category_breakdown(self, makespan: float) -> dict:
        """Worker-side time breakdown as in Fig. 5.

        Returns a mapping with, per category (``compute``, ``memory``,
        ``communication``, ``launch``), the fraction of walltime during
        which the category was active at all, and the *exposed* fraction
        during which it was the only active category (i.e. it blocked
        everything else).
        """
        categories = {
            "compute": COMPUTE_KINDS,
            "memory": MEMORY_KINDS,
            "communication": COMMUNICATION_KINDS,
            "launch": frozenset({ResourceKind.LAUNCH}),
        }
        # Build a unified event timeline from all segments.
        boundaries = set()
        for trace in self._traces.values():
            for t0, t1, _rate in trace.segments:
                boundaries.add(t0)
                boundaries.add(t1)
        timeline = sorted(boundaries)
        active = {name: 0.0 for name in categories}
        exposed = {name: 0.0 for name in categories}
        if len(timeline) < 2 or makespan <= 0:
            return {name: {"active": 0.0, "exposed": 0.0} for name in active}

        # Index segments per category for an interval sweep.
        events = []  # (time, +1/-1, category)
        for name, kinds in categories.items():
            for kind in kinds:
                trace = self._traces.get(kind)
                if trace is None:
                    continue
                for t0, t1, _rate in trace.segments:
                    events.append((t0, 1, name))
                    events.append((t1, -1, name))
        events.sort(key=lambda item: (item[0], -item[1]))
        counts = {name: 0 for name in categories}
        prev_time = events[0][0] if events else 0.0
        index = 0
        while index < len(events):
            time = events[index][0]
            dt = time - prev_time
            if dt > 0:
                live = [name for name, count in counts.items() if count > 0]
                for name in live:
                    active[name] += dt
                if len(live) == 1:
                    exposed[live[0]] += dt
            while index < len(events) and events[index][0] == time:
                _t, delta, name = events[index]
                counts[name] += delta
                index += 1
            prev_time = time
        return {
            name: {
                "active": active[name] / makespan,
                "exposed": exposed[name] / makespan,
            }
            for name in categories
        }
