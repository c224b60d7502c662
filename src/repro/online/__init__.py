"""Continuous training -> online serving, closed into one loop.

Production recommenders never stop training: events stream in, the
model follows the distribution, and serving replicas pick up fresh
weights every few minutes without dropping traffic.  This package
builds that loop out of the existing PICASSO stack:

* :mod:`~repro.online.stream` — :class:`DriftingStream`: an infinite
  Zipf event stream whose hot-ID window rotates over time (concept
  drift), randomly addressable by step.
* :mod:`~repro.online.streaming` — :class:`StreamingTrainer`: trains
  on the stream and tracks which embedding rows each step dirtied.
* :mod:`~repro.online.delta` — :class:`DeltaSnapshot`: changed-rows-only
  diffs (hot rows first) that layer on full checkpoints bitwise.
* :mod:`~repro.online.registry` — :class:`SnapshotRegistry`: versioned
  atomic publishes, delta chains, compaction and GC.
* :mod:`~repro.online.hotswap` — :class:`HotSwapServer`: double-buffered
  weight flips under live traffic, with the load priced at PCIe cost.
* :mod:`~repro.online.autoscale` — :class:`ReplicaAutoscaler`: SLO
  burn-rate windows drive replica counts, with hysteresis + cooldown.
* :mod:`~repro.online.loop` — :func:`simulate_stream`: the whole loop
  on one modeled clock, reported as a :class:`StreamReport`; the
  training, swap and scaling work rides through the serving package's
  one batch loop as a :class:`StreamController`.
"""

from repro.online.autoscale import ReplicaAutoscaler
from repro.online.delta import (
    DeltaSnapshot,
    apply_delta,
    capture_delta,
    load_delta,
    save_delta,
)
from repro.online.hotswap import HotSwapServer, SwapRecord, clone_network
from repro.online.loop import StreamController, StreamReport, \
    simulate_stream
from repro.online.registry import SnapshotRegistry, SnapshotVersion
from repro.online.stream import DriftingStream
from repro.online.streaming import PublishRecord, StreamingTrainer

__all__ = [
    "DeltaSnapshot",
    "DriftingStream",
    "HotSwapServer",
    "PublishRecord",
    "ReplicaAutoscaler",
    "SnapshotRegistry",
    "SnapshotVersion",
    "StreamController",
    "StreamReport",
    "StreamingTrainer",
    "SwapRecord",
    "apply_delta",
    "capture_delta",
    "clone_network",
    "load_delta",
    "save_delta",
    "simulate_stream",
]
