"""Hot-swapping model versions under live traffic (double buffering).

A serving replica cannot pause for a checkpoint load every time the
streaming trainer publishes — at production rates even a one-second
stall sheds thousands of requests.  :class:`HotSwapServer` wraps a
:class:`~repro.serving.server.ModelServer` with the standard
double-buffer protocol:

* a **standby** network (same architecture, privately owned weights)
  absorbs the new version in the background: the registry chain is
  materialized into it while the active network keeps serving, with
  the copy priced at PCIe cost in modeled time (only the bytes the
  standby does not already have — a delta-sized transfer, not a full
  checkpoint);
* once the standby is loaded, the next batch boundary **flips** the
  two networks — a pointer swap whose only serving cost is rebinding
  the model's kernels, microseconds, charged explicitly to the server
  timeline so the pause is measured, not hidden.

The embedding *cache* is deliberately not double-buffered: cache keys
are request IDs, which do not change across versions, so hit-ratio
state survives every swap (a version bump must not re-warm the cache).

While a background load is in flight the active replica's embedding
fetches share the PCIe link with the snapshot copy, so service time is
inflated by ``load_share`` — the swap's degraded mode, exposed as a
``service_factor`` hook that
:class:`~repro.online.loop.StreamController` stacks with the
autoscaler's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.network import WdlNetwork
from repro.online.registry import SnapshotRegistry, SnapshotVersion
from repro.serving.server import ModelServer


def clone_network(network: WdlNetwork) -> WdlNetwork:
    """A fresh network with the same architecture (its own buffers).

    The standby half of the double buffer: identical dataset, variant,
    dims and table shapes, so registry chains materialize into it and
    the flip is shape-compatible by construction.
    """
    mlp_layers = tuple(layer.weight.shape[1]
                       for layer in network.mlp[:-1])
    vocab_rows = max(table.vocab_rows
                     for table in network.sparse_tables())
    return WdlNetwork(network.dataset, variant=network.variant,
                      embedding_dim=network.embedding_dim,
                      vocab_rows=vocab_rows, mlp_layers=mlp_layers,
                      seed=0)


@dataclass
class SwapRecord:
    """One version swap, from publish pickup to pointer flip."""

    version: int
    step: int
    requested_s: float
    ready_s: float
    load_s: float
    bytes_loaded: int
    #: set when the flip lands on a batch boundary.
    applied_s: float | None = None
    pause_s: float = 0.0

    def as_dict(self) -> dict:
        return {"version": self.version, "step": self.step,
                "requested_s": self.requested_s, "ready_s": self.ready_s,
                "load_s": self.load_s, "bytes_loaded": self.bytes_loaded,
                "applied_s": self.applied_s, "pause_s": self.pause_s}


class HotSwapServer:
    """Double-buffered version swapping for one model server.

    :param server: the live server whose ``network`` gets flipped.
    :param registry: where published versions come from.
    :param load_share: fraction of embedding-fetch bandwidth the
        background snapshot copy steals while in flight (service-time
        inflation ``1 + load_share`` during the load window).
    """

    def __init__(self, server: ModelServer, registry: SnapshotRegistry,
                 load_share: float = 0.1):
        if not 0.0 <= load_share < 1.0:
            raise ValueError(
                f"load_share must be in [0, 1), got {load_share}")
        self.server = server
        self.registry = registry
        self.load_share = float(load_share)
        self.node = server.node
        self.standby = clone_network(server.network)
        #: registry versions currently held by each buffer (``None``
        #: means initial weights / never loaded).
        self.active_version: int | None = None
        self.active_step = 0
        self.standby_version: int | None = None
        self._pending: SwapRecord | None = None
        self.swaps: list = []
        # The flip rebinds one kernel per lookup/MLP stage — the same
        # per-slice kernel census the server's latency model uses.
        network = server.network
        kernels = network.dataset.num_fields + len(network.mlp) + 2
        self.flip_pause_s = kernels * (
            self.node.gpu.kernel_launch_latency
            + self.node.cpu.op_dispatch_latency)

    # -- background load -----------------------------------------------------

    def pending(self) -> SwapRecord | None:
        """The in-flight swap, if a load has not flipped yet."""
        return self._pending

    def _bytes_to_load(self, entry: SnapshotVersion) -> int:
        """Snapshot bytes the standby is missing for ``entry``.

        The standby already holds ``standby_version`` (the previously
        active weights), so only chain links newer than that ship; a
        cold standby (or one older than the chain's base) pays for the
        full base too.
        """
        chain = self.registry.chain(entry.version)
        have = self.standby_version
        if have is None or have < chain[0].version:
            return sum(link.nbytes for link in chain)
        return sum(link.nbytes for link in chain
                   if link.version > have)

    def begin_swap(self, entry: SnapshotVersion,
                   now_s: float) -> SwapRecord:
        """Start loading ``entry`` into the standby at ``now_s``.

        The weights land immediately (the simulation is not
        time-sliced) but the swap only becomes flippable at
        ``ready_s`` — ``now_s`` plus the modeled PCIe transfer of the
        missing chain bytes.
        """
        if self._pending is not None:
            raise RuntimeError(
                f"swap to v{self._pending.version} still in flight")
        nbytes = self._bytes_to_load(entry)
        load_s = self.node.pcie.latency + nbytes / self.node.pcie.bandwidth
        self.registry.materialize(self.standby, entry.version)
        self.standby_version = entry.version
        record = SwapRecord(version=entry.version, step=entry.step,
                            requested_s=now_s, ready_s=now_s + load_s,
                            load_s=load_s, bytes_loaded=nbytes)
        self._pending = record
        return record

    # -- the flip ------------------------------------------------------------

    def maybe_flip(self, now_s: float) -> float:
        """Flip to the standby if its load has finished by ``now_s``.

        Returns the pause (seconds) to charge to the serving timeline —
        0.0 when nothing flips.  After a flip the old active network
        becomes the new standby, keeping its version tag so the next
        load is delta-sized.
        """
        record = self._pending
        if record is None or record.ready_s > now_s:
            return 0.0
        self.server.network, self.standby = \
            self.standby, self.server.network
        self.active_version, self.standby_version = \
            self.standby_version, self.active_version
        self.active_step = record.step
        record.applied_s = now_s
        record.pause_s = self.flip_pause_s
        self.swaps.append(record)
        self._pending = None
        return self.flip_pause_s

    # -- serve-controller hooks ----------------------------------------------

    def service_factor(self, t: float) -> float:
        """Fetch inflation while the background copy shares PCIe."""
        record = self._pending
        if record is not None and record.requested_s <= t < record.ready_s:
            return 1.0 + self.load_share
        return 1.0

    def summary(self) -> dict:
        """JSON-ready account of the run's swap activity."""
        pauses = [record.pause_s for record in self.swaps]
        return {
            "swaps": len(self.swaps),
            "active_version": self.active_version,
            "active_step": self.active_step,
            "bytes_loaded": sum(record.bytes_loaded
                                for record in self.swaps),
            "total_pause_s": sum(pauses),
            "max_pause_s": max(pauses, default=0.0),
        }
