"""Staleness-vs-AUC study: how fast does a served model rot?

The continuous loop's whole reason to exist: under concept drift
(:class:`~repro.online.stream.DriftingStream` rotates the Zipf-hot ID
window every step) a serving replica's quality decays with the age of
its weights, because newly-hot IDs have embeddings the stale snapshot
never trained.  This experiment measures that decay prequentially
(test-then-train, the standard online-learning protocol): at every
stream step the *serving copy* scores the batch first, then the
trainer learns from it, and the copy refreshes from the trainer only
every ``publish_interval`` steps.

All intervals replay the byte-identical stream (random-access batches)
from a shared warm-up state, so the AUC column isolates exactly one
variable — publish cadence — and is expected to degrade monotonically
as the interval grows.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import Check
from repro.nn.metrics import auc_score
from repro.nn.network import WdlNetwork
from repro.online.hotswap import clone_network
from repro.online.stream import DriftingStream
from repro.serving.server import default_serving_dataset
from repro.training.trainer import SyncTrainer

#: Publish cadences swept, in trainer steps (1 = always fresh).
PUBLISH_INTERVALS = (1, 16, 64, 256)


def _sync_weights(source: WdlNetwork, target: WdlNetwork) -> None:
    """Copy all weights from ``source`` into ``target`` (a publish)."""
    for name, table in source.embeddings.items():
        target.embeddings[name].table[:] = table.table
    target.load_dense_state(source.dense_state())


def prequential_auc(publish_interval: int, steps: int = 256,
                    warmup: int = 64, batch_size: int = 256,
                    drift_ids_per_step: float = 16.0,
                    seed: int = 0) -> float:
    """Held-out-by-time AUC of a copy refreshed every ``interval``.

    The trainer and its serving copy walk the same drifting stream;
    scoring happens before training on each batch (so every prediction
    is on genuinely unseen events), and only steps after ``warmup``
    count toward the AUC.
    """
    if publish_interval < 1:
        raise ValueError("publish_interval must be >= 1, got "
                         f"{publish_interval}")
    if not 0 < warmup < steps:
        raise ValueError(f"need 0 < warmup < steps, got {warmup} "
                         f"vs {steps}")
    dataset = default_serving_dataset()
    network = WdlNetwork(dataset, variant="wdl", seed=seed)
    serving = clone_network(network)
    stream = DriftingStream(dataset, batch_size,
                            drift_ids_per_step=drift_ids_per_step,
                            seed=seed)
    trainer = SyncTrainer(network)
    labels = []
    scores = []
    for step in range(steps):
        batch = stream.batch(step)
        if step >= warmup:
            scores.append(serving.predict(batch))
            labels.append(batch.labels)
        trainer.step(batch, index=step)
        # Every interval refreshes the copy; the warm-up boundary syncs
        # unconditionally so all intervals start from the same state.
        if (step + 1 == warmup
                or (step >= warmup
                    and (step + 1 - warmup) % publish_interval == 0)):
            _sync_weights(network, serving)
    return auc_score(np.concatenate(labels), np.concatenate(scores))


def run_staleness_auc(steps: int = 256, warmup: int = 64,
                      batch_size: int = 256,
                      drift_ids_per_step: float = 16.0,
                      seed: int = 0) -> list:
    """AUC across publish cadences; the ``experiment`` CLI entry point."""
    rows = []
    for interval in PUBLISH_INTERVALS:
        auc = prequential_auc(interval, steps=steps, warmup=warmup,
                              batch_size=batch_size,
                              drift_ids_per_step=drift_ids_per_step,
                              seed=seed)
        rows.append({
            "publish_interval": interval,
            # Under a steady cadence the served weights average half an
            # interval old.
            "mean_staleness_steps": f"{(interval - 1) / 2:.1f}",
            "auc": f"{auc:.4f}",
        })
    return rows


def paper_reference() -> str:
    """This study extends the paper; no published numbers exist."""
    return ("Extension study: the paper trains offline. Expected "
            "shape: prequential AUC strictly decreases as the publish "
            "interval grows — stale snapshots miss the embeddings of "
            "newly-hot IDs under drift, which is the case for "
            "delta-snapshot publishing at short cadences.")


def claims(rows: list) -> list:
    """The study's claims, checked on :func:`run_staleness_auc` rows."""
    aucs = [float(row["auc"]) for row in rows]
    # Staler weights score worse under drift.
    return [
        Check("AUC never rises as the publish interval grows",
              aucs == sorted(aucs, reverse=True)),
        Check("every publish interval has a distinct AUC",
              len(set(aucs)) == len(aucs)),
        Check("even the stalest copy beats chance (AUC > 0.5)",
              aucs[-1] > 0.5),
    ]
