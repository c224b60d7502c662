"""Critical-path analysis: which ops actually pay for the makespan.

Per-resource utilization says *how busy* the machine was; it cannot say
*which* ops to speed up.  This module walks the executed DAG backwards
from the last finisher — at every hop the blocking predecessor is the
dependency that finished latest — and so partitions the whole makespan
into on-path op time plus queueing gaps (the byteprofile-analysis
recipe, applied to our simulator's task records).

Each on-path op's time is then attributed to resource classes
(compute / memory / communication / launch, plus queueing wait) from
its execution segments, and ops are ranked by their share of the
makespan.  Repeated per-iteration instances (``it3/mlp_fwd`` ...)
aggregate under one label so a three-iteration run reads like one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.sim.resource import (
    COMMUNICATION_KINDS,
    COMPUTE_KINDS,
    MEMORY_KINDS,
    ResourceKind,
)

#: Ranking label for inter-op queueing gaps on the path.
WAIT_LABEL = "(queue wait)"

#: Resource-class attribution buckets.
RESOURCE_CLASSES = ("compute", "memory", "communication", "launch", "wait")

_INSTANCE_SEGMENT = re.compile(r"^(it|s|mb)\d+$")

_KIND_CLASS = {
    **{kind.value: "compute" for kind in COMPUTE_KINDS},
    **{kind.value: "memory" for kind in MEMORY_KINDS},
    **{kind.value: "communication" for kind in COMMUNICATION_KINDS},
    ResourceKind.LAUNCH.value: "launch",
}

_EPS = 1e-12


def resource_class(kind_value: str) -> str:
    """Map a resource-kind value to its attribution class."""
    return _KIND_CLASS.get(kind_value, "compute")


@dataclass(frozen=True)
class PathStep:
    """One hop of the critical path, in chronological order."""

    name: str
    start: float
    end: float
    kind: str  # "op" or "wait"

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class PathEntry:
    """One ranked contributor (an op label or the wait bucket)."""

    label: str
    seconds: float
    share: float
    occurrences: int
    classes: dict  # resource class -> seconds

    @property
    def dominant_class(self) -> str:
        """The resource class this entry spends most of its time in."""
        if not self.classes:
            return "wait"
        return max(sorted(self.classes), key=lambda c: self.classes[c])

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "seconds": self.seconds,
            "share": self.share,
            "occurrences": self.occurrences,
            "dominant_class": self.dominant_class,
            "classes": dict(self.classes),
        }


@dataclass
class CriticalPathReport:
    """The analyzer's full output."""

    makespan: float
    path: list = field(default_factory=list)  # PathStep, chronological
    entries: list = field(default_factory=list)  # PathEntry, ranked
    class_seconds: dict = field(default_factory=dict)
    top_k: int = 10

    def top(self, k: int | None = None) -> list:
        """The ``k`` largest contributors (default: ``self.top_k``)."""
        return self.entries[:self.top_k if k is None else k]

    def coverage(self, k: int | None = None) -> float:
        """Fraction of the makespan the top-``k`` entries explain."""
        if self.makespan <= 0:
            return 0.0
        return sum(entry.seconds for entry in self.top(k)) / self.makespan

    def as_dict(self) -> dict:
        return {
            "makespan": self.makespan,
            "top_k": self.top_k,
            "coverage": round(self.coverage(), 6),
            "entries": [entry.as_dict() for entry in self.entries],
            "class_seconds": {name: self.class_seconds.get(name, 0.0)
                              for name in RESOURCE_CLASSES},
            "path_length": len(self.path),
        }


def _merge_classes(left: dict, right: dict) -> dict:
    merged = dict(left)
    for name, seconds in right.items():
        merged[name] = merged.get(name, 0.0) + seconds
    return merged


def _rank(groups: dict, makespan: float) -> list:
    entries = [
        PathEntry(label=label, seconds=seconds,
                  share=seconds / makespan if makespan > 0 else 0.0,
                  occurrences=count, classes=classes)
        for label, (seconds, count, classes) in groups.items()
    ]
    entries.sort(key=lambda entry: (-entry.seconds, entry.label))
    return entries


def group_label(name: str) -> str:
    """Aggregation key for an op name.

    Instance-numbering path segments — iteration (``it0``), shard
    (``s3``) and micro-batch (``mb1``) — collapse, so the ranking
    reads per *logical* op: ``it2/s3/dim128.1/gather`` and
    ``it0/s1/dim128.1/gather`` both land on ``dim128.1/gather``.
    """
    parts = [part for part in name.split("/")
             if not _INSTANCE_SEGMENT.match(part)]
    return "/".join(parts) if parts else name


def _walk_path(records: list) -> list:
    """Backward walk from the last finisher; returns chronological steps.

    Each hop attributes ``[start, end]`` to the current record and any
    gap back to its latest-finishing predecessor to queueing.  The
    returned steps partition ``[0, makespan]`` exactly.
    """
    by_name = {record.name: record for record in records}
    last = max(records, key=lambda record: (record.end, record.name))
    steps: list = []
    current = last
    while True:
        steps.append(PathStep(current.name, current.start, current.end,
                              "op"))
        blockers = [by_name[name] for name in current.preds
                    if name in by_name]
        if not blockers:
            if current.start > _EPS:
                steps.append(PathStep(WAIT_LABEL, 0.0, current.start,
                                      "wait"))
            break
        blocker = max(blockers, key=lambda record: (record.end,
                                                    record.name))
        gap = current.start - blocker.end
        if gap > _EPS:
            steps.append(PathStep(WAIT_LABEL, blocker.end, current.start,
                                  "wait"))
        current = blocker
    steps.reverse()
    return steps


def analyze_critical_path(records: list, makespan: float | None = None,
                          top_k: int = 10) -> CriticalPathReport:
    """Rank the ops (and queueing) that dominate the makespan.

    :param records: :class:`~repro.sim.trace.TaskRecord` list from an
        engine run with ``record_tasks=True``.
    :param makespan: run length; defaults to the last record's end.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    if not records:
        return CriticalPathReport(makespan=makespan or 0.0, top_k=top_k)
    by_name = {record.name: record for record in records}
    steps = _walk_path(records)
    if makespan is None:
        makespan = steps[-1].end

    groups: dict = {}
    class_seconds = {name: 0.0 for name in RESOURCE_CLASSES}
    for step in steps:
        if step.kind == "wait":
            label = WAIT_LABEL
            classes = {"wait": step.seconds}
        else:
            label = group_label(step.name)
            record = by_name[step.name]
            classes = {}
            for kind, seconds in record.resource_seconds().items():
                name = resource_class(kind)
                classes[name] = classes.get(name, 0.0) + seconds
            wait = step.seconds - sum(classes.values())
            if wait > _EPS:
                classes["wait"] = classes.get("wait", 0.0) + wait
        for name, seconds in classes.items():
            class_seconds[name] += seconds
        if label in groups:
            seconds, count, merged = groups[label]
            groups[label] = (seconds + step.seconds, count + 1,
                             _merge_classes(merged, classes))
        else:
            groups[label] = (step.seconds, 1, classes)

    return CriticalPathReport(
        makespan=makespan, path=steps,
        entries=_rank(groups, makespan),
        class_seconds=class_seconds, top_k=top_k)


def class_deltas(base: CriticalPathReport,
                 candidate: CriticalPathReport) -> dict:
    """Per-resource-class path-time deltas between two reports.

    The what-if replayer's summary view: for each attribution class
    (compute, memory, communication, launch, wait) the change in
    on-path seconds from ``base`` to ``candidate``, plus the makespan
    delta under ``"makespan"``.  An unperturbed replay diffs to all
    zeros; a launch-only perturbation moves ``launch`` and ``wait``
    while the other classes stay put.
    """
    deltas = {name: (candidate.class_seconds.get(name, 0.0)
                     - base.class_seconds.get(name, 0.0))
              for name in RESOURCE_CLASSES}
    deltas["makespan"] = candidate.makespan - base.makespan
    return deltas


def format_critical_path(report: CriticalPathReport,
                         k: int | None = None) -> str:
    """Human-readable top-k table plus resource-class attribution."""
    lines = [
        f"critical path over {report.makespan * 1e3:.3f} ms makespan "
        f"({len(report.path)} steps)",
        f"{'#':>2}  {'share':>6}  {'cum':>6}  {'ms':>9}  "
        f"{'x':>4}  {'class':<13} op",
    ]
    cumulative = 0.0
    for rank, entry in enumerate(report.top(k), start=1):
        cumulative += entry.share
        lines.append(
            f"{rank:>2}  {entry.share:>6.1%}  {cumulative:>6.1%}  "
            f"{entry.seconds * 1e3:>9.3f}  {entry.occurrences:>4}  "
            f"{entry.dominant_class:<13} {entry.label}")
    total = sum(report.class_seconds.values()) or 1.0
    attribution = "  ".join(
        f"{name}={report.class_seconds.get(name, 0.0) / total:.0%}"
        for name in RESOURCE_CLASSES)
    lines.append(f"path time by resource class: {attribution}")
    lines.append(f"top-{len(report.top(k))} coverage: "
                 f"{report.coverage(k):.1%} of makespan")
    return "\n".join(lines)
