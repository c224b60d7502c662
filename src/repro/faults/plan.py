"""Seeded, declarative fault models: what goes wrong, and when.

Production PICASSO leans on in-house failover recovery that the paper
declares out of scope; a production-scale reproduction still has to
survive node crashes, stragglers and degraded links.  A
:class:`FaultPlan` is the declarative half of that story: an immutable,
fully seeded schedule of :class:`FaultEvent`\\ s that every consumer —
the simulation engine's :class:`~repro.faults.inject.FaultInjector`,
the :class:`~repro.faults.resilient.ResilientTrainer`, and serving's
:class:`~repro.faults.degraded.DegradedModeController` — interprets
against its own clock.  Because the plan is a pure function of its
constructor arguments (Poisson arrivals come from one
``numpy.random.default_rng(seed)``), the same seed always yields the
same event schedule, the same recovery timeline, and the same report:
faulty runs are exactly as reproducible as healthy ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Event kinds a plan may carry.
FAULT_KINDS = ("crash", "straggler", "link_degrade")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled failure.

    :param kind: ``"crash"`` (the worker process dies; in-flight work
        is lost and the target is dark for ``duration_s``),
        ``"straggler"`` (compute throughput divided by ``severity``
        over the window), or ``"link_degrade"`` (network capacity
        multiplied by ``severity`` over the window).
    :param time_s: when the fault strikes, in the consumer's clock.
    :param duration_s: how long the fault persists (crash: downtime
        before the replacement is up; straggler/link: window length).
    :param severity: straggler slowdown factor (``>= 1``) or link
        capacity fraction (``0 < severity <= 1``); ignored for crashes.
    :param worker: which worker/replica the fault hits.
    """

    kind: str
    time_s: float
    duration_s: float = 0.0
    severity: float = 1.0
    worker: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        if self.time_s < 0:
            raise ValueError(f"time_s must be >= 0, got {self.time_s}")
        if self.duration_s < 0:
            raise ValueError(
                f"duration_s must be >= 0, got {self.duration_s}")
        if self.kind == "straggler" and self.severity < 1.0:
            raise ValueError(
                "straggler severity is a slowdown factor >= 1, "
                f"got {self.severity}")
        if self.kind == "link_degrade" and not 0.0 < self.severity <= 1.0:
            raise ValueError(
                "link_degrade severity is a capacity fraction in "
                f"(0, 1], got {self.severity}")

    @property
    def end_s(self) -> float:
        """When the fault clears."""
        return self.time_s + self.duration_s

    def active_at(self, t: float) -> bool:
        """Whether the fault window covers modeled time ``t``."""
        return self.time_s <= t < self.end_s

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "time_s": self.time_s,
            "duration_s": self.duration_s,
            "severity": self.severity,
            "worker": self.worker,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultEvent":
        return cls(kind=payload["kind"], time_s=payload["time_s"],
                   duration_s=payload.get("duration_s", 0.0),
                   severity=payload.get("severity", 1.0),
                   worker=payload.get("worker", 0))


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of faults, ordered by strike time.

    Build one directly from events, from seeded Poisson arrivals
    (:meth:`generate`), or from an evenly spaced grid
    (:meth:`periodic`, for sweeps that must vary monotonically with
    the rate).  ``as_dict`` / :meth:`from_dict` round-trip losslessly,
    so a :class:`~repro.api.RunConfig` or
    :class:`~repro.api.ServeConfig` embedding a plan reproduces the
    faulty run from config alone.
    """

    events: tuple = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events,
                               key=lambda e: (e.time_s, e.kind, e.worker)))
        object.__setattr__(self, "events", ordered)

    @classmethod
    def generate(cls, seed: int, duration_s: float,
                 crash_rate: float = 0.0,
                 straggler_rate: float = 0.0,
                 link_degrade_rate: float = 0.0,
                 workers: int = 1,
                 crash_downtime_s: float = 0.5,
                 straggler_window_s: float = 1.0,
                 straggler_slowdown: float = 4.0,
                 link_window_s: float = 1.0,
                 link_capacity_fraction: float = 0.25) -> "FaultPlan":
        """Seeded Poisson fault arrivals over ``[0, duration_s)``.

        Each kind arrives as an independent Poisson process at its
        rate (events/second); affected workers are drawn uniformly.
        Same seed, same arguments, same schedule — byte for byte.
        """
        if duration_s <= 0:
            raise ValueError(
                f"duration_s must be > 0, got {duration_s}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        rng = np.random.default_rng(seed)
        events = []
        specs = (
            ("crash", crash_rate, crash_downtime_s, 1.0),
            ("straggler", straggler_rate, straggler_window_s,
             straggler_slowdown),
            ("link_degrade", link_degrade_rate, link_window_s,
             link_capacity_fraction),
        )
        for kind, rate, window, severity in specs:
            if not 0 <= rate < math.inf:
                raise ValueError(
                    f"{kind} rate must be finite and >= 0, got {rate}")
            if rate == 0:
                continue
            t = 0.0
            while True:
                t += float(rng.exponential(1.0 / rate))
                if t >= duration_s:
                    break
                events.append(FaultEvent(
                    kind=kind, time_s=t, duration_s=window,
                    severity=severity,
                    worker=int(rng.integers(workers))))
        return cls(events=tuple(events), seed=seed)

    @classmethod
    def periodic(cls, crash_rate: float, duration_s: float,
                 crash_downtime_s: float = 0.5,
                 workers: int = 1) -> "FaultPlan":
        """Evenly spaced crashes at ``crash_rate`` per second.

        Crash count is exactly ``floor(duration_s * crash_rate)`` (the
        first crash lands mid-period), so sweeping the rate moves the
        count monotonically — the deterministic grid the
        ``fault_recovery`` experiment's goodput curves are drawn on.
        """
        if crash_rate < 0:
            raise ValueError(
                f"crash_rate must be >= 0, got {crash_rate}")
        if duration_s <= 0:
            raise ValueError(
                f"duration_s must be > 0, got {duration_s}")
        events = []
        if crash_rate > 0:
            period = 1.0 / crash_rate
            count = int(duration_s * crash_rate)
            for index in range(count):
                events.append(FaultEvent(
                    kind="crash", time_s=(index + 0.5) * period,
                    duration_s=crash_downtime_s,
                    worker=index % max(1, workers)))
        return cls(events=tuple(events), seed=None)

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> tuple:
        """Events of one kind, in strike order."""
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        return tuple(e for e in self.events if e.kind == kind)

    def crashes(self) -> tuple:
        """The crash events, in strike order."""
        return self.of_kind("crash")

    def between(self, t0: float, t1: float) -> tuple:
        """Events striking within ``(t0, t1]``."""
        return tuple(e for e in self.events if t0 < e.time_s <= t1)

    def active(self, t: float, kind: str | None = None) -> tuple:
        """Events whose window covers ``t`` (optionally one kind)."""
        return tuple(e for e in self.events
                     if e.active_at(t) and (kind is None or e.kind == kind))

    def boundaries(self) -> tuple:
        """Sorted unique start/end times — where state may change."""
        times = set()
        for event in self.events:
            times.add(event.time_s)
            times.add(event.end_s)
        return tuple(sorted(times))

    # -- serialization -------------------------------------------------------

    def as_dict(self) -> dict:
        """Plain-dict snapshot; :meth:`from_dict` inverts it exactly."""
        return {
            "seed": self.seed,
            "events": [event.as_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        return cls(
            events=tuple(FaultEvent.from_dict(entry)
                         for entry in payload.get("events", ())),
            seed=payload.get("seed"))
