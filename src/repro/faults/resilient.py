"""Checkpoint-restore-replay training under injected faults.

:class:`ResilientTrainer` wraps a
:class:`~repro.training.trainer.SyncTrainer` with the recovery loop
production PICASSO gets from its in-house failover service: checkpoint
every ``ckpt_interval`` steps (through
:mod:`repro.training.checkpoint`, optimizer slots included), detect
worker loss from the :class:`~repro.faults.plan.FaultPlan`, restore
the last durable checkpoint, and replay the lost steps.

Time is modeled, state is real: every optimizer step actually runs on
the numpy network, while the wall clock advances by per-step cost,
checkpoint-write cost, failure-detection and restore delays, and
straggler slowdowns.  Because checkpoints capture the full state and
the batch stream is seeded, a replayed step recomputes *bitwise* the
loss it produced before the crash — the trainer verifies this on every
replay and reports any divergence.

The resulting :class:`RecoveryReport` carries the classic
fault-tolerance accounting: MTTR, lost-work seconds, and goodput
(useful step-seconds over total wall time) — the quantities the
``fault_recovery`` experiment sweeps against crash rate and
checkpoint interval.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.faults.plan import FaultPlan
from repro.training.checkpoint import load_checkpoint, save_checkpoint
from repro.training.trainer import SyncTrainer


@dataclass
class RecoveryReport:
    """Fault-tolerance accounting for one training run.

    Wall-time decomposes as ``useful + replayed + checkpoint + repair
    + stalled`` (stalled = straggler inflation of step time); goodput
    is the useful fraction.  ``mttr_s`` is the mean time from a crash
    striking to the trainer being back at its pre-crash step count
    (detection + restore + replay).
    """

    steps: int
    ckpt_interval: int
    crashes: int = 0
    recoveries: int = 0
    total_wall_s: float = 0.0
    useful_s: float = 0.0
    replayed_s: float = 0.0
    checkpoint_s: float = 0.0
    repair_s: float = 0.0
    stalled_s: float = 0.0
    lost_work_s: float = 0.0
    mttr_s: float = 0.0
    replay_divergence: int = 0
    losses: list = field(default_factory=list)

    @property
    def goodput(self) -> float:
        """Useful step-seconds per wall-second, in ``[0, 1]``."""
        if self.total_wall_s <= 0:
            return 1.0
        return self.useful_s / self.total_wall_s

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    def as_dict(self) -> dict:
        """Plain-dict snapshot for telemetry export and benchmarks."""
        return {
            "steps": self.steps,
            "ckpt_interval": self.ckpt_interval,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "total_wall_s": self.total_wall_s,
            "useful_s": self.useful_s,
            "replayed_s": self.replayed_s,
            "checkpoint_s": self.checkpoint_s,
            "repair_s": self.repair_s,
            "stalled_s": self.stalled_s,
            "lost_work_s": self.lost_work_s,
            "mttr_s": self.mttr_s,
            "goodput": self.goodput,
            "replay_divergence": self.replay_divergence,
            "final_loss": self.final_loss,
        }


class ResilientTrainer:
    """Failure-surviving wrapper around :class:`SyncTrainer`.

    :param trainer: the inner trainer whose :meth:`SyncTrainer.step`
        does the real optimizer work (telemetry included).
    :param ckpt_dir: directory for checkpoint files; a checkpoint only
        becomes the restore target once its write *completes*, so a
        crash mid-write falls back to the previous durable one.
    :param ckpt_interval: checkpoint every N steps; ``0`` disables
        periodic checkpointing (recovery restarts from step 0 — the
        baseline the goodput curves are measured against).
    :param step_time_s: modeled wall seconds per training step.
    :param ckpt_write_s: modeled seconds per checkpoint write.
    :param detect_s: failure-detection delay after a crash strikes.
    :param restore_s: checkpoint-restore delay before replay begins.
    """

    def __init__(self, trainer: SyncTrainer, ckpt_dir,
                 ckpt_interval: int = 10, step_time_s: float = 1.0,
                 ckpt_write_s: float = 0.1, detect_s: float = 0.25,
                 restore_s: float = 0.25):
        if ckpt_interval < 0:
            raise ValueError("ckpt_interval must be >= 0")
        if step_time_s <= 0:
            raise ValueError("step_time_s must be > 0")
        if min(ckpt_write_s, detect_s, restore_s) < 0:
            raise ValueError("modeled delays must be >= 0")
        self.trainer = trainer
        self.ckpt_dir = Path(ckpt_dir)
        self.ckpt_interval = int(ckpt_interval)
        self.step_time_s = float(step_time_s)
        self.ckpt_write_s = float(ckpt_write_s)
        self.detect_s = float(detect_s)
        self.restore_s = float(restore_s)
        self._last_durable: tuple | None = None  # (step, path)

    # -- checkpoint plumbing -------------------------------------------------

    def _save(self, step: int) -> None:
        path = self.ckpt_dir / f"ckpt_step{step}.npz"
        save_checkpoint(self.trainer.network, path, step=step,
                        optimizer=self.trainer.optimizer)
        self._last_durable = (step, path)  # durable only once written

    def _restore(self) -> int:
        if self._last_durable is None:
            raise RuntimeError("no durable checkpoint to restore from")
        step, path = self._last_durable
        load_checkpoint(self.trainer.network, path,
                        optimizer=self.trainer.optimizer,
                        expected_step=step)
        return step

    # -- the recovery loop ---------------------------------------------------

    def train(self, iterator, steps: int,
              fault_plan: FaultPlan | None = None) -> RecoveryReport:
        """Run ``steps`` updates surviving the plan's crashes.

        The batch stream is materialized up front (it is a pure
        function of the iterator's seed), so replayed steps see the
        exact batches they saw before the crash.
        """
        if steps < 1:
            raise ValueError("steps must be >= 1")
        plan = fault_plan or FaultPlan()
        batches = list(iterator.batches(steps))
        report = RecoveryReport(steps=steps,
                                ckpt_interval=self.ckpt_interval,
                                losses=[None] * steps)
        self.ckpt_dir.mkdir(parents=True, exist_ok=True)
        self._save(0)  # the job's initial artifact; free at t=0
        crashes = deque(plan.crashes())
        mttrs: list = []
        wall = 0.0
        step = 0
        committed = 0  # highest step count ever reached

        def slowdown(t: float) -> float:
            factor = 1.0
            for event in plan.active(t, kind="straggler"):
                factor *= max(1.0, event.severity)
            return factor

        def fail(crash, activity_start: float, partial_s: float) -> None:
            nonlocal wall, step
            report.crashes += 1
            last_step = self._last_durable[0]
            lost = (step - last_step) * self.step_time_s + partial_s
            report.lost_work_s += lost
            repair = self.detect_s + self.restore_s
            report.repair_s += repair
            # Time already burnt between activity start and the strike.
            wall = max(wall + partial_s, crash.time_s) + repair
            restored = self._restore()
            mttrs.append(repair
                         + (step - restored) * self.step_time_s)
            step = restored
            report.recoveries += 1

        while step < steps:
            next_crash = crashes[0] if crashes else None
            due_ckpt = (self.ckpt_interval > 0 and step > 0
                        and step % self.ckpt_interval == 0
                        and self._last_durable[0] < step)
            if due_ckpt:
                duration = self.ckpt_write_s
            else:
                duration = self.step_time_s * slowdown(wall)
            if next_crash is not None and next_crash.time_s < wall + duration:
                crashes.popleft()
                fail(next_crash, wall,
                     partial_s=max(0.0, next_crash.time_s - wall))
                continue
            if due_ckpt:
                wall += duration
                report.checkpoint_s += duration
                self._save(step)
                continue
            loss = self.trainer.step(batches[step], index=step)
            wall += duration
            report.stalled_s += duration - self.step_time_s
            if step < committed:
                report.replayed_s += self.step_time_s
                if report.losses[step] != loss:
                    report.replay_divergence += 1
            report.losses[step] = loss
            step += 1
            committed = max(committed, step)

        report.total_wall_s = wall
        report.useful_s = steps * self.step_time_s
        report.mttr_s = sum(mttrs) / len(mttrs) if mttrs else 0.0
        return report
