"""Fault injection and elastic recovery (paper SS III: failover scope).

Production PICASSO relies on an in-house failover-recovery service the
paper leaves out of scope; this package supplies the open-source
equivalent as a seeded, deterministic layer over the existing stack:

* :mod:`~repro.faults.plan` — :class:`FaultPlan` /
  :class:`FaultEvent`: a reproducible schedule of node crashes,
  stragglers, and link degradations (Poisson-``generate`` or
  grid-``periodic``).
* :mod:`~repro.faults.inject` — :class:`FaultInjector`: threads a
  plan through the discrete-event :class:`~repro.sim.engine.Engine`
  (capacity scaling, task kill/requeue).
* :mod:`~repro.faults.resilient` — :class:`ResilientTrainer` /
  :class:`RecoveryReport`: checkpoint-restore-replay training with
  MTTR, lost-work and goodput accounting.
* :mod:`~repro.faults.degraded` — :class:`DegradedModeController`:
  replica loss becomes admission tightening, not an outage, through
  the serve-trace controller slot.
* :mod:`~repro.faults.monitor` — :class:`FaultToleranceMonitor` and
  :func:`plan_report`: failures and recoveries on the telemetry
  ``alerts`` track.
"""

from repro.faults.degraded import DegradedModeController
from repro.faults.inject import FaultInjector
from repro.faults.monitor import (
    FaultToleranceMonitor,
    plan_alerts,
    plan_report,
)
from repro.faults.plan import FAULT_KINDS, FaultEvent, FaultPlan
from repro.faults.resilient import RecoveryReport, ResilientTrainer

__all__ = [
    "FAULT_KINDS",
    "DegradedModeController",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultToleranceMonitor",
    "RecoveryReport",
    "ResilientTrainer",
    "plan_alerts",
    "plan_report",
]
