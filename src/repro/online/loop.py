"""The continuous loop: train, publish, hot-swap, autoscale — one clock.

:func:`simulate_stream` closes the last gap between PICASSO's training
and serving halves: a :class:`~repro.online.streaming.StreamingTrainer`
advances on its own modeled cadence (``train_step_s`` per step) while a
:class:`~repro.serving.server.ModelServer` serves an open-loop request
trace, and the two meet only through the
:class:`~repro.online.registry.SnapshotRegistry` — the trainer
publishes embedding-delta snapshots, a
:class:`~repro.online.hotswap.HotSwapServer` picks them up, loads them
into the standby buffer in the background and flips at a batch
boundary.  A :class:`~repro.online.autoscale.ReplicaAutoscaler` watches
the same burn-rate windows the telemetry monitor alerts on and scales
serving capacity under the trace's rate shape (diurnal swing, flash
crowd).  Serving runs through :func:`~repro.serving.server.serve_trace`,
the one per-batch serving loop, with all of that per-batch work in a
:class:`StreamController` in its controller slot.

Everything shares one modeled clock and one seed: the report —
goodput, swap pauses, model staleness, delta compression, the replica
timeline — is a deterministic function of the configuration.
"""

from __future__ import annotations

import contextlib
import tempfile
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.nn.network import WdlNetwork
from repro.online.autoscale import ReplicaAutoscaler
from repro.online.hotswap import HotSwapServer, clone_network
from repro.online.registry import SnapshotRegistry
from repro.online.stream import DriftingStream
from repro.online.streaming import StreamingTrainer
from repro.serving.metrics import ServingReport
from repro.serving.server import (
    build_serving_stack,
    default_serving_dataset,
    serve_trace,
)
from repro.serving.slo import SloPolicy
from repro.telemetry.monitor import SloBurnRateMonitor
from repro.telemetry.provenance import build_manifest

if TYPE_CHECKING:
    from repro.api import StreamConfig

#: SLO error budget and burn-rate window the autoscaler decides on.
BURN_BUDGET = 0.01
BURN_WINDOW_S = 0.05


@dataclass(frozen=True)
class StreamReport:
    """Headline metrics of one continuous train-and-serve run."""

    serving: ServingReport
    steps: int
    publishes: int
    swaps: int
    #: publishes superseded before their swap started (catch-up skips).
    skipped_versions: int
    swap_pause_p99_ms: float
    #: requests shed only because a flip pause delayed their batch.
    swap_attributed_shed: int
    staleness_mean_s: float
    staleness_max_s: float
    full_snapshot_bytes: int
    delta_snapshot_bytes_mean: float
    #: full checkpoint size over mean delta size (>= 1.0 when deltas
    #: exist; 0.0 when the run never published a delta).
    delta_compression: float
    final_loss: float
    controls: dict = field(default_factory=dict, compare=False)

    @property
    def goodput_qps(self) -> float:
        """Served requests per modeled second (the serving QPS)."""
        return self.serving.qps

    def as_dict(self) -> dict:
        """Plain-dict export (benchmarks, JSON)."""
        return {
            "serving": self.serving.as_dict(),
            "steps": self.steps,
            "publishes": self.publishes,
            "swaps": self.swaps,
            "skipped_versions": self.skipped_versions,
            "goodput_qps": self.goodput_qps,
            "swap_pause_p99_ms": self.swap_pause_p99_ms,
            "swap_attributed_shed": self.swap_attributed_shed,
            "staleness_mean_s": self.staleness_mean_s,
            "staleness_max_s": self.staleness_max_s,
            "full_snapshot_bytes": self.full_snapshot_bytes,
            "delta_snapshot_bytes_mean": self.delta_snapshot_bytes_mean,
            "delta_compression": self.delta_compression,
            "final_loss": self.final_loss,
            "controls": dict(self.controls),
        }

    def row(self) -> dict:
        """One formatted table row (for ``format_table``)."""
        return {
            "served": self.serving.served,
            "shed": self.serving.shed,
            "p99_ms": f"{self.serving.p99_ms:.3f}",
            "goodput": f"{self.goodput_qps:,.0f}",
            "swaps": self.swaps,
            "swap_shed": self.swap_attributed_shed,
            "staleness_s": f"{self.staleness_mean_s:.3f}",
            "delta_x": f"{self.delta_compression:.1f}",
        }


def simulate_stream(config: StreamConfig, tracer=None,
                    metrics=None) -> StreamReport:
    """Run one :class:`~repro.api.StreamConfig`'s continuous loop.

    The serving half is built and run exactly like
    :func:`~repro.serving.server.simulate_serving`'s; the training,
    hot-swap and autoscaling work rides through
    :func:`~repro.serving.server.serve_trace` as a
    :class:`StreamController`.  Every publish carries the config's
    provenance manifest.  ``tracer``/``metrics`` observe the run as
    in :func:`~repro.serving.server.serve_trace`; swaps also land as
    ``swap/v*`` spans on the ``alerts`` track.
    """
    trainer_network = WdlNetwork(default_serving_dataset(),
                                 variant=config.variant, seed=config.seed)
    server, requests, batcher, policy = build_serving_stack(
        config, clone_network(trainer_network), shape=config.shape)
    snapshot_dir = (
        tempfile.TemporaryDirectory(prefix="repro-stream-")
        if config.snapshot_dir is None
        else contextlib.nullcontext(config.snapshot_dir))
    with snapshot_dir as root:
        registry = SnapshotRegistry(root, max_chain=config.max_chain)
        stream = DriftingStream(
            trainer_network.dataset, config.train_batch_size,
            drift_ids_per_step=config.drift_ids_per_step, seed=config.seed)
        prefetcher = None
        if config.prefetch is not None:
            from repro.prefetch import AdaptiveResidency, LookaheadPrefetcher
            adaptive = AdaptiveResidency(hot_k=max(1, int(config.hot_rows)))
            prefetcher = LookaheadPrefetcher(
                config.prefetch, resident=adaptive,
                observe=adaptive.observe,
                row_bytes=trainer_network.embedding_dim * 4,
                step_seconds=config.train_step_s)
        trainer = StreamingTrainer(
            trainer_network, stream, registry,
            publish_interval=config.publish_interval,
            provenance=build_manifest(
                kind="stream", config=config.as_dict()).as_dict(),
            prefetcher=prefetcher)
        autoscaler = ReplicaAutoscaler(
            SloBurnRateMonitor(slo_ms=config.slo_s * 1e3,
                               budget=BURN_BUDGET,
                               window_s=BURN_WINDOW_S),
            min_replicas=config.min_replicas,
            max_replicas=config.max_replicas) if config.autoscale else None
        controller = StreamController(
            config, trainer,
            HotSwapServer(server, registry, load_share=config.load_share),
            autoscaler, tracer=tracer)
        serving = serve_trace(requests, server, batcher, policy,
                              tracer=tracer, metrics=metrics,
                              controller=controller)
        return controller.report(serving)


class StreamController:
    """The stream's per-batch work, as a :func:`serve_trace` controller.

    * ``before_batch`` catches the trainer's modeled clock up to the
      batch's start, starts loading the newest publish (catch-up:
      versions superseded meanwhile are never loaded), flips a
      finished load in, pushing the server's free time back by the
      pause, and lets the autoscaler decide every closed window;
    * ``service_factor`` stacks the autoscaler's ``1 / replicas`` with
      the swap's load-window inflation;
    * ``admit`` is the plain policy's, plus a recount of how many of
      the batch's sheds exist only because a flip pushed it later;
    * ``after_batch`` feeds every outcome to the autoscaler and
      accumulates request-weighted model staleness;
    * ``summary`` maps ``ReplicaAutoscaler``/``HotSwapServer`` to
      their own summaries.
    """

    def __init__(self, config: StreamConfig, trainer: StreamingTrainer,
                 swapper: HotSwapServer,
                 autoscaler: ReplicaAutoscaler | None,
                 tracer=None):
        self.config = config
        self.trainer = trainer
        self.swapper = swapper
        self.autoscaler = autoscaler
        self.tracer = tracer
        self.skipped_versions = 0
        self.swap_attributed_shed = 0
        self._last_target = -1
        self._pause = 0.0
        self._unpaused_start = 0.0
        self._staleness_weighted = 0.0
        self._staleness_max = 0.0
        self._served = 0

    # -- serve_trace hooks ---------------------------------------------------

    def before_batch(self, batch, server_free: float) -> float:
        start = max(batch.close_s, server_free)
        trainer, step_s = self.trainer, self.config.train_step_s
        while (trainer.stats.steps < self.config.train_steps
               and (trainer.stats.steps + 1) * step_s <= start):
            trainer.step()
        self._pause = 0.0
        if self.config.hot_swaps:
            swapper = self.swapper
            latest = swapper.registry.latest()
            if (latest is not None and swapper.pending() is None
                    and latest.version != swapper.active_version):
                # Versions are dense integers, so the gap is the count
                # of publishes that came and went unloaded.
                self.skipped_versions += max(
                    0, latest.version - self._last_target - 1)
                self._last_target = latest.version
                swapper.begin_swap(latest, now_s=latest.step * step_s)
            self._pause = swapper.maybe_flip(start)
            if self._pause > 0.0:
                self._record_swap(start)
                server_free += self._pause
                self._unpaused_start = max(batch.close_s,
                                           server_free - self._pause)
                start = max(batch.close_s, server_free)
        if self.autoscaler is not None:
            self.autoscaler.settle(start)
        return server_free

    def _record_swap(self, start: float) -> None:
        """The flip as a ``swap/v*`` span on the ``alerts`` track."""
        record = self.swapper.swaps[-1]
        end = start + self._pause
        if self.tracer is not None:
            self.tracer.add_span(
                f"swap/v{record.version}", record.requested_s, end,
                category="serving", track="alerts",
                attrs={"version": record.version, "step": record.step,
                       "bytes": record.bytes_loaded,
                       "pause_s": self._pause})

    def service_factor(self, t: float) -> float:
        factor = self.swapper.service_factor(t)
        if self.autoscaler is not None:
            factor = self.autoscaler.service_factor(t) * factor
        return factor

    def admit(self, policy: SloPolicy, batch, start_s: float,
              service_estimate_s: float) -> tuple:
        admitted, shed = policy.admit(batch, start_s, service_estimate_s)
        if self._pause > 0.0:
            # The zero-drop bar for hot swapping is on exactly this
            # count: sheds the batch would not have had unpaused.
            baseline, _ = policy.admit(batch, self._unpaused_start,
                                       service_estimate_s)
            self.swap_attributed_shed += max(
                0, len(baseline) - len(admitted))
        return admitted, shed

    def after_batch(self, start_s: float, shed: list, admitted: list,
                    completion_s: float | None) -> None:
        autoscaler = self.autoscaler
        if autoscaler is not None:
            for _request in shed:
                autoscaler.observe(start_s, None)
        if not admitted:
            return
        staleness = max(0.0, start_s - self.swapper.active_step
                        * self.config.train_step_s)
        self._staleness_weighted += staleness * len(admitted)
        self._staleness_max = max(self._staleness_max, staleness)
        self._served += len(admitted)
        if autoscaler is not None:
            for request in admitted:
                autoscaler.observe(completion_s,
                                   completion_s - request.arrival_s)

    def summary(self) -> dict:
        controls = {}
        if self.autoscaler is not None:
            controls["ReplicaAutoscaler"] = self.autoscaler.summary()
        controls["HotSwapServer"] = self.swapper.summary()
        return controls

    # -- the run's report ----------------------------------------------------

    def report(self, serving: ServingReport) -> StreamReport:
        """Close the autoscaler's open windows and assemble the report."""
        if self.autoscaler is not None:
            self.autoscaler.finalize()
        trainer, swapper = self.trainer, self.swapper
        registry = swapper.registry
        pauses_ms = [record.pause_s * 1e3 for record in swapper.swaps]
        deltas = registry.delta_bytes()
        delta_mean = float(np.mean(deltas)) if deltas else 0.0
        full_bytes = registry.full_bytes()
        return StreamReport(
            serving=serving,
            steps=trainer.stats.steps,
            publishes=trainer.stats.publishes,
            swaps=len(swapper.swaps),
            skipped_versions=self.skipped_versions,
            swap_pause_p99_ms=(float(np.percentile(pauses_ms, 99))
                               if pauses_ms else 0.0),
            swap_attributed_shed=self.swap_attributed_shed,
            staleness_mean_s=(self._staleness_weighted / self._served
                              if self._served else 0.0),
            staleness_max_s=self._staleness_max,
            full_snapshot_bytes=full_bytes,
            delta_snapshot_bytes_mean=delta_mean,
            delta_compression=(full_bytes / delta_mean
                               if delta_mean > 0 else 0.0),
            final_loss=(trainer.stats.losses[-1]
                        if trainer.stats.losses else float("nan")),
            controls=self.summary())
