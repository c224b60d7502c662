"""Fault-recovery study (ROADMAP extension, not a paper table): how
crash rate and checkpoint interval move training goodput.

Production PICASSO delegates failover to an in-house service the paper
scopes out; this experiment quantifies what that service buys.  Every
cell trains the *same* seeded model on the *same* batch stream under a
deterministic :meth:`~repro.faults.plan.FaultPlan.periodic` crash
schedule, varying only the crash rate and the
:class:`~repro.faults.resilient.ResilientTrainer` checkpoint interval:

* interval 0 (recovery off: every crash restarts from step 0) shows
  goodput collapsing as the crash rate rises;
* small intervals pay checkpoint-write overhead, large intervals pay
  lost work — the sweep exposes the trade-off;
* the ``trajectory`` column verifies the recovery guarantee: every
  run's loss history must match the crash-free reference *bitwise*.

All time is modeled, so the table is a pure function of the seeds.
"""

from __future__ import annotations

import tempfile

from repro.data.labeled import LabeledBatchIterator
from repro.data.spec import DatasetSpec, FieldSpec
from repro.experiments.common import Check
from repro.faults.plan import FaultPlan
from repro.faults.resilient import ResilientTrainer
from repro.nn.network import WdlNetwork
from repro.nn.optim import Adagrad
from repro.training.trainer import SyncTrainer

#: Crashes per modeled second across the sweep (0 = crash-free).
CRASH_RATES = (0.0, 0.04, 0.1)

#: Checkpoint intervals in steps (0 = recovery restarts from scratch).
CKPT_INTERVALS = (0, 1, 5, 25)


def _tiny_dataset() -> DatasetSpec:
    return DatasetSpec(
        name="FaultMini", num_numeric=4,
        fields=(FieldSpec(name="f0", vocab_size=400, embedding_dim=8),
                FieldSpec(name="f1", vocab_size=400, embedding_dim=8)))


def _fresh_trainer(seed: int) -> tuple:
    """(trainer, iterator) over identical state for every cell."""
    dataset = _tiny_dataset()
    network = WdlNetwork(dataset, variant="wdl", embedding_dim=8,
                         seed=seed)
    trainer = SyncTrainer(network, optimizer=Adagrad(lr=0.05))
    iterator = LabeledBatchIterator(dataset, 32, seed=seed)
    return trainer, iterator


def run_fault_recovery(steps: int = 50, step_time_s: float = 1.0,
                       ckpt_write_s: float = 0.02,
                       detect_s: float = 0.05, restore_s: float = 0.05,
                       seed: int = 0) -> list:
    """Goodput/MTTR over crash rate x checkpoint interval.

    Deterministic: periodic fault plans, one seed for model and data.
    """
    reference = None
    rows = []
    for crash_rate in CRASH_RATES:
        plan = FaultPlan.periodic(crash_rate=crash_rate,
                                  duration_s=steps * step_time_s)
        intervals = CKPT_INTERVALS if crash_rate > 0 else (0,)
        for interval in intervals:
            trainer, iterator = _fresh_trainer(seed)
            with tempfile.TemporaryDirectory() as ckpt_dir:
                resilient = ResilientTrainer(
                    trainer, ckpt_dir, ckpt_interval=interval,
                    step_time_s=step_time_s, ckpt_write_s=ckpt_write_s,
                    detect_s=detect_s, restore_s=restore_s)
                report = resilient.train(iterator, steps,
                                         fault_plan=plan)
            if reference is None:
                reference = list(report.losses)
            exact = (report.losses == reference
                     and report.replay_divergence == 0)
            rows.append({
                "crash_rate": f"{crash_rate:g}",
                "ckpt_interval": interval,
                "crashes": report.crashes,
                "goodput": f"{report.goodput:.3f}",
                "mttr_s": f"{report.mttr_s:.2f}",
                "lost_work_s": f"{report.lost_work_s:.2f}",
                "wall_s": f"{report.total_wall_s:.2f}",
                "trajectory": "exact" if exact else "DIVERGED",
            })
    return rows


def paper_reference() -> str:
    """This study extends the paper; no published numbers exist."""
    return ("Extension study: the paper leaves failover to an in-house "
            "service. Expected shape: with recovery off, goodput "
            "strictly degrades as crash rate rises; checkpointing "
            "recovers most of it, with an interval sweet spot between "
            "write overhead and lost work; every run replays the "
            "crash-free loss trajectory bitwise.")


def claims(rows: list) -> list:
    """The study's claims, checked on :func:`run_fault_recovery` rows."""
    off = [float(row["goodput"]) for row in rows
           if row["ckpt_interval"] == 0]
    crash_free = off[0]
    best = [max(float(row["goodput"]) for row in rows
                if row["crash_rate"] == f"{rate:g}"
                and row["ckpt_interval"] != 0)
            for rate in CRASH_RATES[1:]]
    return [
        # Without checkpoints every crash restarts from scratch, so each
        # extra crash strictly eats wall time.
        Check("recovery off: goodput never rises with crash rate",
              off == sorted(off, reverse=True)),
        Check("recovery off: every crash rate has a distinct goodput",
              len(set(off)) == len(off)),
        Check("at every nonzero crash rate the best checkpoint interval "
              "keeps >= 90% of crash-free goodput",
              all(value >= 0.9 * crash_free for value in best)),
        Check("every run replays the exact crash-free loss trajectory",
              all(row["trajectory"] == "exact" for row in rows)),
        Check("every checkpoint interval is one of the swept intervals",
              set(row["ckpt_interval"] for row in rows)
              <= set(CKPT_INTERVALS)),
    ]
