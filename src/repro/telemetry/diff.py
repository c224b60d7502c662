"""Trace-diff engine: attribute a makespan delta to the ops that moved.

``repro bench compare`` can say *that* a run regressed; this module
says *why*.  :func:`diff_traces` aligns two frozen traces by stable
task identity, re-runs the critical-path analyzer on both sides, and
partitions the makespan delta into per-op, per-label, per-worker and
per-resource-class contributions — exactly, because critical-path
steps partition ``[0, makespan]`` on each side, so per-key on-path
deltas sum to the makespan delta with no residual.  The ranked
:class:`TraceDiff` renders as text ("shuffle_stitch path +31% on
workers s1,s3 explains 78% of the makespan delta"), JSON, and a
Chrome-trace overlay with base and candidate as separate processes.

Its benchmark-side sibling is
:func:`repro.bench.snapshot.compare_snapshots`, which ranks a
candidate snapshot's metric deltas by severity for both ``repro bench
compare`` and ``repro diff --bench``.

Alignment is three-staged: exact task name (names are unique per
trace), then :func:`~repro.telemetry.critical_path.group_label` class
(instance-numbered segments collapsed) with per-class pairing in
start order, then an explicit ``unmatched`` bucket — disjoint task
sets still produce an honest report rather than a crash or a silent
drop.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.sim.trace import FrozenTrace, TaskRecord, canonical_json
from repro.telemetry.critical_path import (
    RESOURCE_CLASSES,
    WAIT_LABEL,
    CriticalPathReport,
    analyze_critical_path,
    class_deltas,
    group_label,
)

#: Alignment stages, in the order they are attempted.
ALIGN_BY_NAME = "name"
ALIGN_BY_CLASS = "class"

#: Worker bucket for tasks without a shard segment in their name.
SHARED_WORKER = "(shared)"

_WORKER_SEGMENT = re.compile(r"^s\d+$")

_EPS = 1e-12


def worker_of(name: str) -> str:
    """The shard/worker identity segment of a task name.

    ``it0/s3/dim32.0/shuffle_stitch`` -> ``s3``; names without an
    ``s<N>`` segment (dataset reads, global barriers) map to
    :data:`SHARED_WORKER`.
    """
    for part in name.split("/"):
        if _WORKER_SEGMENT.match(part):
            return part
    return SHARED_WORKER


def op_basename(name: str) -> str:
    """The op-class identity of a task name (its last path segment)."""
    return name.rsplit("/", 1)[-1]


def exec_seconds(record: TaskRecord) -> float:
    """Total execution (non-wait) seconds of one record."""
    return sum(t1 - t0 for _kind, t0, t1 in record.segments)


@dataclass(frozen=True)
class AlignedPair:
    """One base/candidate record pair and how it was matched."""

    base: TaskRecord
    candidate: TaskRecord
    how: str  # ALIGN_BY_NAME | ALIGN_BY_CLASS


def align_records(base_records, candidate_records):
    """Match records across two traces by stable task identity.

    Returns ``(pairs, base_only, candidate_only)``.  Exact-name
    matches come first; leftovers pair up within each
    :func:`group_label` class in ``(start, name)`` order; the rest
    land in the explicit unmatched lists.
    """
    base_records = list(base_records)
    candidate_records = list(candidate_records)
    by_name = {record.name: record for record in candidate_records}
    pairs = []
    base_left = []
    matched_candidates = set()
    for record in base_records:
        other = by_name.get(record.name)
        if other is not None:
            pairs.append(AlignedPair(record, other, ALIGN_BY_NAME))
            matched_candidates.add(record.name)
        else:
            base_left.append(record)
    candidate_left = [record for record in candidate_records
                      if record.name not in matched_candidates]

    base_only = []
    candidate_by_class: dict = {}
    for record in candidate_left:
        candidate_by_class.setdefault(group_label(record.name),
                                      []).append(record)
    for bucket in candidate_by_class.values():
        bucket.sort(key=lambda record: (record.start, record.name))
    base_left.sort(key=lambda record: (record.start, record.name))
    for record in base_left:
        bucket = candidate_by_class.get(group_label(record.name))
        if bucket:
            pairs.append(AlignedPair(record, bucket.pop(0),
                                     ALIGN_BY_CLASS))
        else:
            base_only.append(record)
    candidate_only = [record for bucket in candidate_by_class.values()
                      for record in bucket]
    candidate_only.sort(key=lambda record: (record.start, record.name))
    return pairs, base_only, candidate_only


def _aggregate_path(report: CriticalPathReport, key_fn) -> dict:
    """On-path seconds per key; wait steps keep :data:`WAIT_LABEL`."""
    totals: dict = {}
    for step in report.path:
        key = WAIT_LABEL if step.kind == "wait" else key_fn(step.name)
        totals[key] = totals.get(key, 0.0) + step.seconds
    return totals


def _delta_table(base: dict, candidate: dict,
                 makespan_delta: float) -> dict:
    """Per-key {base, candidate, delta, share} rows, all keys union."""
    rows = {}
    for key in sorted(set(base) | set(candidate)):
        base_s = base.get(key, 0.0)
        cand_s = candidate.get(key, 0.0)
        delta = cand_s - base_s
        share = (delta / makespan_delta
                 if abs(makespan_delta) > _EPS else 0.0)
        rows[key] = {"base": base_s, "candidate": cand_s,
                     "delta": delta, "share": share}
    return rows


@dataclass(frozen=True)
class DiffEntry:
    """One ranked contributor to the makespan delta (an op class)."""

    label: str
    path_base: float
    path_candidate: float
    path_delta: float
    share: float  # of the makespan delta (signed; 0 when delta ~ 0)
    exec_base: float
    exec_delta: float
    workers: tuple = ()  # worker ids carrying most of the exec delta

    @property
    def exec_pct(self) -> float:
        """Relative execution-time change for this op class."""
        if self.exec_base <= _EPS:
            return 0.0
        return self.exec_delta / self.exec_base

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "path_base": self.path_base,
            "path_candidate": self.path_candidate,
            "path_delta": self.path_delta,
            "share": self.share,
            "exec_base": self.exec_base,
            "exec_delta": self.exec_delta,
            "exec_pct": self.exec_pct,
            "workers": list(self.workers),
        }


@dataclass
class TraceDiff:
    """Everything :func:`diff_traces` learned, ready to render."""

    base_makespan: float
    candidate_makespan: float
    base_report: CriticalPathReport
    candidate_report: CriticalPathReport
    alignment: dict = field(default_factory=dict)
    by_op: dict = field(default_factory=dict)
    by_label: dict = field(default_factory=dict)
    by_worker: dict = field(default_factory=dict)
    by_class: dict = field(default_factory=dict)
    entries: list = field(default_factory=list)  # DiffEntry, ranked
    base_provenance: dict = field(default_factory=dict)
    candidate_provenance: dict = field(default_factory=dict)
    pairs: list = field(default_factory=list)
    base_only: list = field(default_factory=list)
    candidate_only: list = field(default_factory=list)

    @property
    def makespan_delta(self) -> float:
        return self.candidate_makespan - self.base_makespan

    def explained_share(self, pattern: str) -> float:
        """Summed makespan-delta share of ops whose label matches.

        ``pattern`` is a substring match on the entry label — the
        acceptance check for "the Shuffle perturbation explains >= 90%
        of the delta" is ``diff.explained_share("shuffle") >= 0.9``.
        """
        return sum(entry.share for entry in self.entries
                   if pattern in entry.label)

    def as_dict(self) -> dict:
        return {
            "base_makespan": self.base_makespan,
            "candidate_makespan": self.candidate_makespan,
            "makespan_delta": self.makespan_delta,
            "alignment": dict(self.alignment),
            "entries": [entry.as_dict() for entry in self.entries],
            "by_op": self.by_op,
            "by_label": self.by_label,
            "by_worker": self.by_worker,
            "by_class": self.by_class,
            "base_provenance": dict(self.base_provenance),
            "candidate_provenance": dict(self.candidate_provenance),
        }

    def dumps(self) -> str:
        """Canonical JSON (sorted keys, fixed separators, newline)."""
        return canonical_json(self.as_dict())

    def format(self, k: int = 10) -> str:
        """The ranked attribution report, human-readable."""
        delta = self.makespan_delta
        pct = (delta / self.base_makespan * 100.0
               if self.base_makespan > _EPS else 0.0)
        lines = [
            f"trace diff: makespan {self.base_makespan * 1e3:.3f} ms -> "
            f"{self.candidate_makespan * 1e3:.3f} ms "
            f"(delta {delta * 1e3:+.3f} ms, {pct:+.1f}%)",
            "alignment: "
            f"{self.alignment.get('name', 0)} by name, "
            f"{self.alignment.get('class', 0)} by class, "
            f"{self.alignment.get('base_only', 0)}+"
            f"{self.alignment.get('candidate_only', 0)} unmatched",
        ]
        for side, prov in (("base", self.base_provenance),
                           ("candidate", self.candidate_provenance)):
            if prov:
                lines.append(
                    f"{side}: config {prov.get('config_fingerprint', '?')}"
                    f" git {prov.get('git', '?')}")
        lines.append("ranked attribution (on-path seconds delta):")
        lines.append(f"{'#':>2}  {'pathΔms':>9}  {'share':>7}  "
                     f"{'execΔ':>7}  op")
        for rank, entry in enumerate(self.entries[:k], start=1):
            where = (f" [workers {','.join(entry.workers)}]"
                     if entry.workers else "")
            lines.append(
                f"{rank:>2}  {entry.path_delta * 1e3:>+9.3f}  "
                f"{entry.share:>7.1%}  {entry.exec_pct:>+7.1%}  "
                f"{entry.label}{where}")
        classes = "  ".join(
            f"{name}={self.by_class.get(name, 0.0) * 1e3:+.3f}ms"
            for name in RESOURCE_CLASSES)
        lines.append(f"on-path delta by resource class: {classes}")
        workers = sorted(self.by_worker.items(),
                         key=lambda item: (-abs(item[1]["delta"]),
                                           item[0]))
        noteworthy = [f"{name}={row['delta'] * 1e3:+.3f}ms"
                      for name, row in workers[:4]
                      if abs(row["delta"]) > _EPS]
        if noteworthy:
            lines.append("on-path delta by worker: "
                         + "  ".join(noteworthy))
        return "\n".join(lines)

    def overlay(self) -> dict:
        """Chrome-trace overlay: base pid 0, candidate pid 1, diff pid 2.

        Each side renders its records as complete events on per-worker
        threads; pid 2 carries a cumulative ``|exec delta|`` counter
        over the aligned pairs (monotone in both ts and value), so the
        knee of that curve points at where the two runs diverge.
        """
        events: list = []
        sides = (("base", 0, [pair.base for pair in self.pairs]
                  + list(self.base_only)),
                 ("candidate", 1, [pair.candidate for pair in self.pairs]
                  + list(self.candidate_only)))
        metadata: list = []
        for side, pid, records in sides:
            metadata.append({"name": "process_name", "ph": "M",
                             "pid": pid, "tid": 0,
                             "args": {"name": side}})
            metadata.append({"name": "process_sort_index", "ph": "M",
                             "pid": pid, "tid": 0,
                             "args": {"sort_index": pid}})
            tids: dict = {}
            for record in sorted(records,
                                 key=lambda r: (r.start, r.name)):
                track = worker_of(record.name)
                if track not in tids:
                    tids[track] = len(tids)
                events.append({
                    "name": record.name, "cat": side, "ph": "X",
                    "ts": _us(record.start),
                    "dur": _us(record.duration),
                    "pid": pid, "tid": tids[track],
                    "args": {"exec": round(exec_seconds(record), 9),
                             "wait": round(record.wait_seconds, 9)},
                })
            for track, tid in tids.items():
                metadata.append({"name": "thread_name", "ph": "M",
                                 "pid": pid, "tid": tid,
                                 "args": {"name": track}})
                metadata.append({"name": "thread_sort_index", "ph": "M",
                                 "pid": pid, "tid": tid,
                                 "args": {"sort_index": tid}})
        metadata.append({"name": "process_name", "ph": "M", "pid": 2,
                         "tid": 0, "args": {"name": "diff"}})
        metadata.append({"name": "process_sort_index", "ph": "M",
                         "pid": 2, "tid": 0, "args": {"sort_index": 2}})
        metadata.append({"name": "thread_name", "ph": "M", "pid": 2,
                         "tid": 0,
                         "args": {"name": "cumulative |exec delta|"}})
        samples = sorted(
            (pair.candidate.end,
             abs(exec_seconds(pair.candidate)
                 - exec_seconds(pair.base)),
             pair.candidate.name)
            for pair in self.pairs)
        cumulative = 0.0
        for end, delta, _name in samples:
            cumulative += delta
            events.append({
                "name": "cumulative |exec delta| (s)", "ph": "C",
                "ts": _us(end), "pid": 2, "tid": 0,
                "args": {"seconds": round(cumulative, 9)},
            })
        events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"],
                                   e["name"]))
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": {
                "diff": {
                    "base_makespan": self.base_makespan,
                    "candidate_makespan": self.candidate_makespan,
                    "makespan_delta": self.makespan_delta,
                    "alignment": dict(self.alignment),
                },
                "base_provenance": dict(self.base_provenance),
                "candidate_provenance": dict(self.candidate_provenance),
            },
        }


def _us(seconds: float) -> float:
    """Seconds -> microseconds, rounded to nanosecond grain."""
    return round(seconds * 1e6, 3)


def _worker_annotation(pairs, label: str, op_delta: float) -> tuple:
    """Workers carrying the bulk of one op class's exec delta."""
    per_worker: dict = {}
    for pair in pairs:
        if op_basename(pair.base.name) != label:
            continue
        delta = exec_seconds(pair.candidate) - exec_seconds(pair.base)
        worker = worker_of(pair.base.name)
        per_worker[worker] = per_worker.get(worker, 0.0) + delta
    if not per_worker or abs(op_delta) <= _EPS:
        return ()
    ranked = sorted(per_worker.items(),
                    key=lambda item: (-abs(item[1]), item[0]))
    total = sum(abs(delta) for _worker, delta in ranked)
    if total <= _EPS:
        return ()
    covered = 0.0
    chosen = []
    for worker, delta in ranked:
        if len(chosen) == 4:
            break
        chosen.append(worker)
        covered += abs(delta)
        if covered / total >= 0.8:
            break
    if len(chosen) == len(per_worker) and len(per_worker) > 1:
        return ()  # spread evenly: naming every worker says nothing
    return tuple(sorted(chosen))


def diff_traces(base: FrozenTrace, candidate: FrozenTrace,
                top_k: int = 10) -> TraceDiff:
    """Diff two frozen traces into a ranked attribution report.

    Identical traces diff to exactly zero everywhere (same floats in,
    same iteration order, exact-zero subtraction); the report is a
    pure function of the two traces, so its canonical JSON is
    byte-stable.
    """
    pairs, base_only, candidate_only = align_records(
        base.records, candidate.records)
    base_report = analyze_critical_path(list(base.records),
                                        base.makespan, top_k=top_k)
    candidate_report = analyze_critical_path(list(candidate.records),
                                             candidate.makespan,
                                             top_k=top_k)
    makespan_delta = candidate.makespan - base.makespan
    by_op = _delta_table(
        _aggregate_path(base_report, op_basename),
        _aggregate_path(candidate_report, op_basename), makespan_delta)
    by_label = _delta_table(
        _aggregate_path(base_report, group_label),
        _aggregate_path(candidate_report, group_label), makespan_delta)
    by_worker = _delta_table(
        _aggregate_path(base_report, worker_of),
        _aggregate_path(candidate_report, worker_of), makespan_delta)

    exec_by_op: dict = {}
    for pair in pairs:
        label = op_basename(pair.base.name)
        base_s, delta_s = exec_by_op.get(label, (0.0, 0.0))
        exec_by_op[label] = (
            base_s + exec_seconds(pair.base),
            delta_s + exec_seconds(pair.candidate)
            - exec_seconds(pair.base))

    entries = []
    for label, row in by_op.items():
        exec_base, exec_delta = exec_by_op.get(label, (0.0, 0.0))
        entries.append(DiffEntry(
            label=label,
            path_base=row["base"],
            path_candidate=row["candidate"],
            path_delta=row["delta"],
            share=row["share"],
            exec_base=exec_base,
            exec_delta=exec_delta,
            workers=_worker_annotation(pairs, label, exec_delta)))
    entries.sort(key=lambda entry: (-abs(entry.path_delta),
                                    entry.label))

    return TraceDiff(
        base_makespan=base.makespan,
        candidate_makespan=candidate.makespan,
        base_report=base_report,
        candidate_report=candidate_report,
        alignment={
            "name": sum(1 for pair in pairs
                        if pair.how == ALIGN_BY_NAME),
            "class": sum(1 for pair in pairs
                         if pair.how == ALIGN_BY_CLASS),
            "base_only": len(base_only),
            "candidate_only": len(candidate_only),
        },
        by_op=by_op, by_label=by_label, by_worker=by_worker,
        by_class=class_deltas(base_report, candidate_report),
        entries=entries,
        base_provenance=dict(base.metadata.get("provenance", {})),
        candidate_provenance=dict(
            candidate.metadata.get("provenance", {})),
        pairs=pairs, base_only=base_only,
        candidate_only=candidate_only)
