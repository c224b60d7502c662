"""Degraded-mode serving: replica loss tightens admission, not uptime.

A production recommender front-end never answers a replica crash with
an outage: the surviving replicas absorb the load at reduced capacity
while admission control sheds proactively so the requests that *are*
served still meet the SLO.  :class:`DegradedModeController` models
exactly that contract on top of the existing
:class:`~repro.serving.slo.SloPolicy`:

* while a :class:`~repro.faults.plan.FaultPlan` crash window is active,
  ``live`` replicas (never below ``min_live``) carry the traffic, so
  modeled service time inflates by ``replicas / live``;
* the admission deadline is tightened by ``live / replicas``, shifting
  capacity loss into shed rate instead of SLO violations.

The controller rides in :func:`~repro.serving.server.serve_trace`'s
controller slot through two duck-typed hooks (``service_factor`` /
``admit``; it needs neither optional per-batch hook), keeping
:mod:`repro.serving` free of any import on :mod:`repro.faults`.
:func:`~repro.serving.server.simulate_serving` writes its
``summary()`` onto the report's ``degraded`` field after the run.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan
from repro.serving.slo import SloConfig, SloPolicy


class DegradedModeController:
    """Replica-loss-aware admission control for a serving run.

    :param plan: fault plan whose ``crash`` events mark replica loss
        windows (``worker`` = replica index, ``duration_s`` = outage).
    :param replicas: total replica count behind the front-end.
    :param min_live: floor on surviving replicas — the last replica
        never "crashes away" (that would be the outage this mode
        exists to avoid).
    """

    def __init__(self, plan: FaultPlan, replicas: int = 1,
                 min_live: int = 1):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if not 1 <= min_live <= replicas:
            raise ValueError("min_live must be in [1, replicas]")
        self.plan = plan
        self.replicas = int(replicas)
        self.min_live = int(min_live)
        self._degraded_batches = 0
        self._total_batches = 0
        self._tightened_shed = 0
        self._min_live_seen = self.replicas

    # -- capacity model ------------------------------------------------------

    def live_replicas(self, t: float) -> int:
        """Replicas still serving at modeled time ``t``."""
        down = {event.worker for event in self.plan.active(t, kind="crash")}
        return max(self.min_live,
                   self.replicas - min(len(down), self.replicas))

    def service_factor(self, t: float) -> float:
        """Service-time inflation: survivors carry the full load."""
        return self.replicas / self.live_replicas(t)

    def budget_factor(self, t: float) -> float:
        """Admission-deadline tightening while degraded, in ``(0, 1]``."""
        return self.live_replicas(t) / self.replicas

    def degraded_seconds(self) -> float:
        """Total modeled time with at least one replica down."""
        windows = sorted((event.time_s, event.end_s)
                         for event in self.plan.of_kind("crash"))
        total, cursor = 0.0, float("-inf")
        for start, end in windows:
            start = max(start, cursor)
            if end > start:
                total += end - start
                cursor = end
        return total

    # -- the serve_trace hooks -----------------------------------------------

    def admit(self, policy: SloPolicy, batch, start_s: float,
              service_estimate_s: float) -> tuple:
        """Admission with the deadline tightened for current capacity.

        At full capacity this is exactly ``policy.admit``; degraded, a
        temporary policy with the scaled-down budget decides, and the
        extra sheds are attributed to degraded mode in the summary.
        """
        self._total_batches += 1
        live = self.live_replicas(start_s)
        self._min_live_seen = min(self._min_live_seen, live)
        if live >= self.replicas:
            return policy.admit(batch, start_s, service_estimate_s)
        self._degraded_batches += 1
        config = policy.config
        tightened = SloPolicy(SloConfig(
            latency_budget_s=config.latency_budget_s
            * self.budget_factor(start_s),
            max_queue_delay_s=config.max_queue_delay_s))
        admitted, shed = tightened.admit(batch, start_s,
                                         service_estimate_s)
        would_admit, _ = policy.admit(batch, start_s, service_estimate_s)
        self._tightened_shed += max(0, len(would_admit) - len(admitted))
        return admitted, shed

    def summary(self) -> dict:
        """JSON-ready account of how degraded the run got."""
        return {
            "replicas": self.replicas,
            "replica_crashes": len(self.plan.of_kind("crash")),
            "degraded_seconds": self.degraded_seconds(),
            "min_live_replicas": self._min_live_seen,
            "degraded_batches": self._degraded_batches,
            "total_batches": self._total_batches,
            "tightened_shed": self._tightened_shed,
        }
