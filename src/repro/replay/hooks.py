"""Pluggable per-class cost hooks for trace replay.

A :class:`CostHooks` instance answers one question per execution
segment: by how much does the perturbed world scale this segment's
duration?  Scales are declared per resource *class* (compute, memory,
communication, launch — the same buckets the critical-path analyzer
attributes to) with optional per-:class:`~repro.sim.resource.
ResourceKind` overrides for finer models (e.g. the auto-tuner's
per-kind work ratios).

Queue waits are re-derived, not copied: each wait gap precedes some
segment, and the hook's ``wait_model`` decides how that gap tracks the
segment's scale.  The default ``"congestion"`` model is asymmetric —
waits grow with added work (``max(1, scale)``) but are not credited
when work shrinks — because recorded waits are contention stalls whose
structure survives load shedding far better than it survives load
growth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.resource import ResourceKind
from repro.telemetry.critical_path import RESOURCE_CLASSES, resource_class

#: How a wait gap scales relative to the following segment's scale.
WAIT_MODELS = ("congestion", "scaled", "frozen")


@dataclass(frozen=True)
class CostHooks:
    """Per-class duration scales plus the wait re-derivation policy.

    :param compute: duration scale for compute segments.
    :param memory: duration scale for memory segments.
    :param communication: duration scale for communication segments.
    :param launch: duration scale for launch segments.
    :param kind_overrides: ``((kind_value, scale), ...)`` pairs taking
        precedence over the class scale for specific resource kinds.
    :param wait_model: ``"congestion"`` (waits scale by
        ``max(1, scale)``), ``"scaled"`` (waits track the segment
        scale), or ``"frozen"`` (waits keep their recorded duration).
    """

    compute: float = 1.0
    memory: float = 1.0
    communication: float = 1.0
    launch: float = 1.0
    kind_overrides: tuple = ()
    wait_model: str = "congestion"

    def __post_init__(self) -> None:
        for name in ("compute", "memory", "communication", "launch"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(
                    f"{name} scale must be > 0, got {value!r}")
        known = {kind.value for kind in ResourceKind}
        for kind_value, scale in self.kind_overrides:
            if kind_value not in known:
                raise ValueError(
                    f"unknown resource kind {kind_value!r}; "
                    f"expected one of {sorted(known)}")
            if not scale > 0.0:
                raise ValueError(
                    f"scale for {kind_value!r} must be > 0, "
                    f"got {scale!r}")
        if self.wait_model not in WAIT_MODELS:
            raise ValueError(
                f"unknown wait_model {self.wait_model!r}; "
                f"expected one of {WAIT_MODELS}")

    @classmethod
    def from_class_scales(cls, scales: dict,
                          wait_model: str = "congestion") -> "CostHooks":
        """Build from a ``{class: scale}`` dict (unlisted classes: 1)."""
        unknown = sorted(set(scales)
                         - {"compute", "memory", "communication",
                            "launch"})
        if unknown:
            raise ValueError(
                f"unknown resource class(es) {unknown}; expected a "
                f"subset of {[c for c in RESOURCE_CLASSES if c != 'wait']}")
        return cls(compute=scales.get("compute", 1.0),
                   memory=scales.get("memory", 1.0),
                   communication=scales.get("communication", 1.0),
                   launch=scales.get("launch", 1.0),
                   wait_model=wait_model)

    @classmethod
    def from_kind_scales(cls, scales: dict,
                         wait_model: str = "congestion") -> "CostHooks":
        """Build from a ``{kind_value: scale}`` dict (per-kind model)."""
        return cls(kind_overrides=tuple(sorted(scales.items())),
                   wait_model=wait_model)

    @property
    def identity(self) -> bool:
        """True when no segment duration changes under these hooks."""
        return (self.compute == 1.0 and self.memory == 1.0
                and self.communication == 1.0 and self.launch == 1.0
                and all(scale == 1.0
                        for _kind, scale in self.kind_overrides))

    def scale_for(self, kind_value: str) -> float:
        """The duration scale applied to segments on ``kind_value``."""
        for override_kind, scale in self.kind_overrides:
            if override_kind == kind_value:
                return scale
        return getattr(self, resource_class(kind_value))

    def table(self) -> dict:
        """``{kind_value: scale}`` over every known resource kind."""
        return {kind.value: self.scale_for(kind.value)
                for kind in ResourceKind}

    def wait_scale(self, segment_scale: float) -> float:
        """The scale applied to the wait gap before a segment."""
        if self.wait_model == "frozen":
            return 1.0
        if self.wait_model == "congestion":
            return max(1.0, segment_scale)
        return segment_scale

    def as_dict(self) -> dict:
        return {
            "compute": self.compute,
            "memory": self.memory,
            "communication": self.communication,
            "launch": self.launch,
            "kind_overrides": [list(pair)
                               for pair in self.kind_overrides],
            "wait_model": self.wait_model,
        }
