"""The streaming trainer: continuous updates + periodic publishes.

:class:`StreamingTrainer` is the producer half of the
continuous-training -> online-serving loop: it consumes a
:class:`~repro.online.stream.DriftingStream` one batch at a time
through the ordinary :class:`~repro.training.trainer.SyncTrainer`
step path (same telemetry, same optimizer semantics) and, every
``publish_interval`` steps, publishes its weights to a
:class:`~repro.online.registry.SnapshotRegistry`.

Between publishes it keeps two pieces of bookkeeping the delta format
needs:

* **dirty rows** — the union of embedding-table rows touched by the
  optimizer since the last publish, harvested from each step's pending
  sparse gradients (exactly the rows whose values can differ from the
  published state);
* **row heat** — a per-table
  :class:`~repro.embedding.counter.FrequencyCounter` over the same
  rows, so the delta can ship hot rows first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.embedding.counter import FrequencyCounter
from repro.nn.network import WdlNetwork
from repro.online.registry import SnapshotRegistry, SnapshotVersion
from repro.online.stream import DriftingStream
from repro.training.trainer import SyncTrainer


@dataclass
class PublishRecord:
    """One publish: which version landed, when, and its payload size."""

    version: SnapshotVersion
    step: int
    dirty_rows: int

    def as_dict(self) -> dict:
        return {"version": self.version.version,
                "kind": self.version.kind, "step": self.step,
                "dirty_rows": self.dirty_rows,
                "nbytes": self.version.nbytes}


@dataclass
class StreamingTrainerStats:
    """Rolling account of a streaming trainer's life so far."""

    steps: int = 0
    publishes: int = 0
    losses: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"steps": self.steps, "publishes": self.publishes,
                "final_loss": self.losses[-1] if self.losses
                else float("nan")}


class StreamingTrainer:
    """Train forever on a drifting stream, publishing snapshots.

    :param network: the live model (its weights are what publishes
        capture).
    :param stream: the event source; step ``k`` trains on
        ``stream.batch(k)``.
    :param registry: where publishes land; the registry decides
        full-vs-delta (first publish and every ``max_chain`` publishes
        compact to a full base).
    :param publish_interval: steps between publishes (> 0).
    :param optimizer/tracer: forwarded to the inner
        :class:`~repro.training.trainer.SyncTrainer`.
    :param provenance: optional run-manifest dict stamped onto every
        publish (delta headers + registry manifest entries).
    :param prefetcher: optional
        :class:`~repro.prefetch.LookaheadPrefetcher`; the trainer
        buffers the next ``lookahead_depth`` stream positions and
        trains them in the pipeline's hot-first order (publish cadence
        still counts *steps*, not stream positions).  ``None`` — or a
        FIFO/depth-1 pipeline — consumes the stream strictly in order.
    """

    def __init__(self, network: WdlNetwork, stream: DriftingStream,
                 registry: SnapshotRegistry, publish_interval: int = 50,
                 optimizer=None, tracer=None,
                 provenance=None, prefetcher=None):
        if publish_interval < 1:
            raise ValueError(
                f"publish_interval must be >= 1, got {publish_interval}")
        self.network = network
        self.stream = stream
        self.registry = registry
        self.publish_interval = int(publish_interval)
        self.provenance = dict(provenance or {})
        self._trainer = SyncTrainer(network, optimizer=optimizer,
                                    tracer=tracer)
        self.stats = StreamingTrainerStats()
        self.publishes: list = []
        self._dirty: dict = {name: set() for name in network.embeddings}
        self._heat: dict = {name: FrequencyCounter()
                            for name in network.embeddings}
        self.prefetcher = prefetcher
        self._stream_pos = 0  # next stream position to buffer

    @property
    def step_index(self) -> int:
        """The next stream position to train on."""
        return self.stats.steps

    def dirty_row_count(self) -> int:
        """Rows currently dirty (to be carried by the next delta)."""
        return sum(len(rows) for rows in self._dirty.values())

    def _harvest_dirty(self) -> None:
        """Fold this step's touched rows into dirty sets + heat."""
        for field_name, table in self.network.embeddings.items():
            touched = [rows for rows, _grads in table.sparse_grads()]
            if not touched:
                continue
            rows = np.unique(np.concatenate(touched))
            self._dirty[field_name].update(rows.tolist())
            self._heat[field_name].observe(rows)

    def _next_batch(self):
        """The next batch to train on (lookahead order when prefetching)."""
        if self.prefetcher is None:
            return self.stream.batch(self.stats.steps)
        depth = self.prefetcher.config.lookahead_depth
        while len(self.prefetcher) < depth:
            self.prefetcher.push(self.stream.batch(self._stream_pos))
            self._stream_pos += 1
        _index, batch = self.prefetcher.pop()
        return batch

    def step(self) -> float:
        """Train on the next stream batch; returns the loss.

        Publishes automatically when ``publish_interval`` steps have
        accumulated since the last publish (the publish captures the
        weights *after* this step's update).
        """
        batch = self._next_batch()
        loss = self._trainer.step(batch, index=self.stats.steps)
        self._harvest_dirty()
        self.stats.steps += 1
        self.stats.losses.append(loss)
        if self.stats.steps % self.publish_interval == 0:
            self.publish()
        return loss

    def run_steps(self, count: int) -> list:
        """Advance ``count`` steps; returns their losses."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return [self.step() for _ in range(count)]

    def publish(self) -> PublishRecord:
        """Publish current weights now; resets the dirty accounting.

        The very first publish is always a full base (the registry has
        nothing to chain a delta on); later publishes ship deltas until
        the registry's compaction point.
        """
        dirty = None
        if self.registry.latest() is not None:
            dirty = {name: np.fromiter(sorted(rows), dtype=np.int64,
                                       count=len(rows))
                     for name, rows in self._dirty.items()}
        entry = self.registry.publish(
            self.network, step=self.stats.steps, dirty_rows=dirty,
            counters=self._heat, provenance=self.provenance)
        record = PublishRecord(version=entry, step=self.stats.steps,
                               dirty_rows=self.dirty_row_count())
        self.publishes.append(record)
        self.stats.publishes += 1
        for rows in self._dirty.values():
            rows.clear()
        for counter in self._heat.values():
            counter.reset()
        return record
