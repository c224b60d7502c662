"""Builds the per-iteration operator DAG for a WDL training step.

This module is the cost model: given a model spec, a cluster, and an
:class:`ExecutionPlan` (strategy + optimization knobs), it emits the
operator graph one worker executes per iteration, with every phase cost
derived from batch statistics and hardware specs.

Both the baselines (:mod:`repro.baselines`) and PICASSO
(:mod:`repro.core`) build their graphs here; they differ only in the
plans they construct, which keeps the comparison internally consistent
the way the paper's single-cluster methodology does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config_base import require_choice, require_positive
from repro.data.spec import DatasetSpec, FieldSpec
from repro.data.loader import batch_wire_bytes
from repro.data.statistics import expected_unique_fraction
from repro.graph.graph import Graph
from repro.graph.op import Op, OpKind, efficiency_capped_rate
from repro.hardware.topology import ClusterSpec
from repro.memo import Memo
from repro.models.base import (
    InteractionKind,
    ModelSpec,
    MODULE_MICRO_OPS,
    interaction_flops_per_instance,
)
from repro.sim.resource import Phase, ResourceKind

_FLOAT_BYTES = 4
_ID_BYTES = 8

#: Framework micro-operations per logical embedding op, per feature
#: field, in an unpacked TF-style graph.  Sequence fields multiply by
#: :data:`SEQ_MICRO_FACTOR` (ragged handling).  Calibrated against
#: Tab. V's operation counts.
EMB_MICRO_OPS = {
    OpKind.UNIQUE: 60,
    OpKind.PARTITION: 35,
    OpKind.GATHER: 95,
    OpKind.SHUFFLE: 70,
    OpKind.STITCH: 45,
    OpKind.SEGMENT_REDUCE: 90,
    OpKind.EMB_GRAD: 110,
    OpKind.OPT_SPARSE: 65,
}

#: Micro-op multiplier for behaviour-sequence fields.
SEQ_MICRO_FACTOR = 2.5

#: Fused kernels keep ~60% of their constituents' micro-ops.
FUSION_MICRO_FACTOR = 0.6


@dataclass(frozen=True)
class CostModel:
    """Tunable constants of the workload-to-hardware projection.

    Frozen (and therefore hashable): cost models ride inside
    :class:`~repro.core.config.PicassoConfig`, which keys the
    planner's process-wide plan cache on every run.
    """

    #: Host seconds one framework micro-op occupies the dispatch path
    #: end to end (kernel launch, executor bookkeeping, small host
    #: kernels).  TF 1.x profiles show ~10-30 us per small op.
    launch_per_micro_op: float = 12.0e-6
    #: Additional per-logical-op dispatch floor.
    launch_floor: float = 1.0e-6
    #: Hashmap probe amplification: bytes touched per ID byte looked up.
    hash_probe_factor: float = 2.0
    #: Kernel sizes needed to saturate the device (occupancy model).
    sm_saturation_flops: float = 8.0e7
    bw_saturation_bytes: float = 8.0e6
    net_saturation_bytes: float = 16.0e6
    #: Bus-transaction amplification of scattered embedding-row traffic
    #: (random 64-256 B rows burn far more bus cycles than their
    #: payload); charged as extra *work* so concurrent scattered ops
    #: cannot add up past the physical link.
    scatter_amplification: float = 8.0
    #: Packed gathers stage rows into contiguous bursts and waste less.
    packed_scatter_amplification: float = 6.0
    #: Backward compute costs this multiple of forward compute.
    backward_flops_factor: float = 2.0
    #: Optimizer state slots touched per parameter (Adagrad: grad+slot).
    optimizer_slots: int = 2
    #: Straggler inflation of synchronous collectives from skewed data.
    straggler_factor: float = 1.15
    #: Framework scheduling cost grows with graph size: beyond this many
    #: micro-ops per iteration, per-op dispatch degrades linearly (TF
    #: session-run overhead on very large graphs).
    graph_overhead_knee: float = 400_000.0


@dataclass
class EmbeddingGroup:
    """A unit of embedding execution: one field, or a packed set.

    Baselines use one group per field; PICASSO's D-Packing merges all
    fields sharing an embedding dimension (subject to Eq. 1 sharding).

    :param shard_fraction: portion of the packed work this shard
        carries (1.0 for unsharded groups).
    :param interleave_set: K-Interleaving set index (0-based); groups in
        the same set run concurrently, distinct sets are pipelined.
    :param excluded: preset-excluded groups skip interleave ordering.
    """

    name: str
    fields: tuple
    shard_fraction: float = 1.0
    interleave_set: int = 0
    excluded: bool = False

    def __post_init__(self) -> None:
        if not self.fields:
            raise ValueError(f"group {self.name!r} has no fields")
        if not 0 < self.shard_fraction <= 1.0:
            raise ValueError(
                "shard_fraction must be in (0, 1], got "
                f"{self.shard_fraction}")

    @property
    def embedding_dim(self) -> int:
        """Width of this group's output embeddings (max across fields)."""
        return max(spec.embedding_dim for spec in self.fields)

    @property
    def is_packed(self) -> bool:
        """Whether this group merges multiple fields."""
        return len(self.fields) > 1

    @property
    def max_seq_factor(self) -> float:
        """Micro-op multiplier from the heaviest sequence field."""
        if any(spec.seq_length > 1 for spec in self.fields):
            return SEQ_MICRO_FACTOR
        return 1.0

    def ids_per_batch(self, batch_size: int) -> float:
        """Categorical IDs this group processes per batch."""
        total = sum(batch_size * spec.seq_length for spec in self.fields)
        return total * self.shard_fraction


def groups_per_field(dataset: DatasetSpec) -> list:
    """The unpacked baseline grouping: one group per feature field."""
    return [EmbeddingGroup(name=f"field:{spec.name}", fields=(spec,))
            for spec in dataset.fields]


#: Unique-fraction memo.  The statistic is a pure function of
#: ``(vocab, skew, capped batch, seed)`` — sampling is seeded — so it
#: is memoized process-wide rather than per instance: planners are
#: constructed per run, and re-sampling the same distributions
#: dominated repeated plan builds.
_UNIQUE_FRACTION = Memo("unique_fraction", 1024)


class WorkloadStats:
    """Per-field batch statistics (unique-ID fractions), memoized."""

    def __init__(self, seed: int = 7):
        self._seed = seed

    def unique_fraction(self, spec: FieldSpec, batch_ids: int) -> float:
        """Expected unique fraction for a batch of ``batch_ids`` IDs.

        Memoized by the field's *distribution* (vocabulary, skew), so
        structurally identical fields — e.g. Tab. VIII's duplicated
        feature fields — share one measurement.
        """
        seed = self._seed
        return _UNIQUE_FRACTION.get(
            (spec.vocab_size, spec.zipf_exponent,
             min(batch_ids, 200_000), seed),
            expected_unique_fraction, spec, batch_ids, 3, seed)  # samples=3

    def group_unique_ids(self, group: EmbeddingGroup,
                         batch_size: int) -> float:
        """Expected unique IDs a group produces per batch."""
        total = 0.0
        for spec in group.fields:
            ids = batch_size * spec.seq_length
            total += ids * self.unique_fraction(spec, ids)
        return total * group.shard_fraction


@dataclass
class ExecutionPlan:
    """Everything needed to expand one training iteration into a graph.

    :param strategy: ``"ps-async"``, ``"ps-sync"``, ``"mp"``, ``"dp"``
        or ``"hybrid"`` (PICASSO's MP embeddings + DP dense).
    :param groups: embedding execution units (packed or per-field).
    :param fuse_kernels: K-Packing (Unique&Partition, Shuffle&Stitch).
    :param interleave_sets: number of K-Interleaving sets the groups
        are spread over (1 = no interleaving: all groups race).
    :param fine_grained_deps: let downstream modules start as soon as
        *their* groups finish instead of waiting on a global concat
        barrier (PICASSO) .
    :param micro_batches: D-Interleaving slice count.
    :param micro_batch_scope: ``"all"`` (slice from the embedding
        layer, Fig. 8b) or ``"mlp"`` (slice the dense tail, Fig. 8a).
    :param cache_hit_ratio: fraction of unique-ID lookups served from
        GPU Hot-storage (``None`` = no cache; lookups go to DRAM).
    :param io_overlap: prefetch batches so I/O overlaps compute.
    :param ps_bandwidth_factor: effective fraction of the NIC usable
        when pulling from parameter servers (congestion, Fig. 10).
    :param launch_scale: relative launch efficiency of the framework
        (PyTorch eager dispatch is cheaper than TF-PS graphs, etc.).
    """

    model: ModelSpec
    cluster: ClusterSpec
    batch_size: int
    strategy: str
    groups: list
    fuse_kernels: bool = False
    interleave_sets: int = 1
    fine_grained_deps: bool = False
    micro_batches: int = 1
    micro_batch_scope: str = "all"
    cache_hit_ratio: float | None = None
    io_overlap: bool = False
    ps_bandwidth_factor: float = 1.0
    ps_serving_rate: float = float("inf")
    net_stack_rate: float = float("inf")
    #: Wire-size factor of the input pipeline (HybridBackend's columnar
    #: layout ships roughly half the bytes of padded TFRecords).
    io_compression: float = 1.0
    launch_scale: float = 1.0
    cost: CostModel = field(default_factory=CostModel)
    #: Max/mean per-worker AllToAllv shard bytes from a
    #: :class:`~repro.embedding.placement.PlacementPlan`.  ``None``
    #: falls back to the cost model's generic ``straggler_factor``;
    #: a planner-supplied value prices the embedding exchanges with
    #: the placement's actual (im)balance — the gating shard.
    shard_imbalance: float | None = None
    #: Hot/cold lookahead pipelining (Hotline, arXiv 2204.05436): with
    #: a window deeper than one batch, the predicted-cold share of the
    #: next iteration's embedding rows is gathered and exchanged on a
    #: chained background prefetch stream while the current iteration
    #: computes.  ``prefetch_lookahead <= 1`` or the ``"fifo"`` null
    #: policy disables the stream (graph identical to the non-prefetch
    #: builder, byte for byte).
    prefetch_lookahead: int = 1
    prefetch_hot_threshold: float = 0.6
    prefetch_inflight_bytes: float = float("inf")
    prefetch_policy: str = "hotness"

    def __post_init__(self) -> None:
        require_choice(self, "strategy",
                       ("ps-async", "ps-sync", "mp", "dp", "hybrid"))
        require_positive(self, "batch_size", "micro_batches",
                         "interleave_sets", "prefetch_lookahead")
        require_choice(self, "micro_batch_scope", ("all", "mlp"))
        if self.cache_hit_ratio is not None and not (
                0.0 <= self.cache_hit_ratio <= 1.0):
            raise ValueError("cache_hit_ratio must be in [0, 1]")
        if self.shard_imbalance is not None and self.shard_imbalance < 1.0:
            raise ValueError("shard_imbalance must be >= 1.0")
        if not 0.0 <= self.prefetch_hot_threshold <= 1.0:
            raise ValueError("prefetch_hot_threshold must be in [0, 1]")
        if self.prefetch_inflight_bytes <= 0:
            raise ValueError("prefetch_inflight_bytes must be > 0")
        if not self.prefetch_policy:
            raise ValueError("prefetch_policy must be non-empty")

    def signature(self) -> dict:
        """Canonical JSON-able description of the compiled graph's inputs.

        Everything :class:`IterationGraphBuilder` and the launch-cost
        projection read from the plan appears here — model and dataset
        shapes, cluster hardware, packing/interleaving/caching knobs,
        and the full cost model — so two plans with equal signatures
        compile to identical graphs.  The compile cache
        (:func:`repro.core.executor.compile_plan`) keys on the sha256
        config fingerprint of this dict.
        """
        from dataclasses import asdict

        model = self.model
        dataset = model.dataset
        return {
            "model": {
                "name": model.name,
                "mlp_layers": list(model.mlp_layers),
                "num_tasks": model.num_tasks,
                "modules": [
                    [m.name, m.kind.value, list(m.fields), m.hidden,
                     m.repeats] for m in model.modules],
            },
            "dataset": {
                "name": dataset.name,
                "num_numeric": dataset.num_numeric,
                "num_instances": dataset.num_instances,
                "fields": [
                    [f.name, f.vocab_size, f.embedding_dim, f.seq_length,
                     f.zipf_exponent] for f in dataset.fields],
            },
            "cluster": asdict(self.cluster),
            "batch_size": self.batch_size,
            "strategy": self.strategy,
            "groups": [
                [g.name, [f.name for f in g.fields], g.shard_fraction,
                 g.interleave_set, g.excluded] for g in self.groups],
            "fuse_kernels": self.fuse_kernels,
            "interleave_sets": self.interleave_sets,
            "fine_grained_deps": self.fine_grained_deps,
            "micro_batches": self.micro_batches,
            "micro_batch_scope": self.micro_batch_scope,
            "cache_hit_ratio": self.cache_hit_ratio,
            "io_overlap": self.io_overlap,
            "ps_bandwidth_factor": self.ps_bandwidth_factor,
            "ps_serving_rate": self.ps_serving_rate,
            "net_stack_rate": self.net_stack_rate,
            "io_compression": self.io_compression,
            "launch_scale": self.launch_scale,
            "shard_imbalance": self.shard_imbalance,
            "prefetch_lookahead": self.prefetch_lookahead,
            "prefetch_hot_threshold": self.prefetch_hot_threshold,
            "prefetch_inflight_bytes": self.prefetch_inflight_bytes,
            "prefetch_policy": self.prefetch_policy,
            "cost": asdict(self.cost),
        }

    def exchange_factor(self) -> float:
        """Inflation applied to AllToAllv exchange bytes.

        The collective completes when the most-loaded shard does, so
        exchanges are priced at the max (not mean) per-worker bytes:
        the placement plan's measured max/mean ratio when available,
        else the cost model's generic straggler factor.
        """
        if self.shard_imbalance is not None:
            return self.shard_imbalance
        return self.cost.straggler_factor

    def prefetch_share(self) -> float:
        """Fraction of cold gather/exchange work staged ahead.

        A deeper window covers more of the next batch
        (``1 - 1/lookahead`` of it is visible in time), and a higher
        hot threshold classifies more rows as cold-and-prefetchable.
        The ``"fifo"`` null policy and a depth-1 window yield 0.0 —
        no prefetch stream, the graph is unchanged.
        """
        if self.prefetch_lookahead <= 1 or self.prefetch_policy == "fifo":
            return 0.0
        window = 1.0 - 1.0 / self.prefetch_lookahead
        return self.prefetch_hot_threshold * window

    @property
    def uses_alltoall(self) -> bool:
        """Whether embeddings move via AllToAllv collectives."""
        return self.strategy in ("mp", "hybrid")

    @property
    def is_async(self) -> bool:
        """Whether parameter updates are asynchronous (PS-async)."""
        return self.strategy == "ps-async"


class IterationGraphBuilder:
    """Expands an :class:`ExecutionPlan` into operator graphs."""

    def __init__(self, plan: ExecutionPlan, stats: WorkloadStats | None = None):
        self.plan = plan
        self.stats = stats or WorkloadStats()
        self._node = plan.cluster.node
        self._workers = plan.cluster.num_workers
        self._field_to_group = {}
        for group in plan.groups:
            for spec in group.fields:
                self._field_to_group.setdefault(spec.name, group)
        # Background prefetch stream state: the stream is one chained
        # queue across iterations (its in-order issue is what the
        # inflight budget bounds).
        self._prev_prefetch: dict = {}
        self._iter_prefetch: dict = {}
        self._prefetch_bytes_cache = None
        # batch -> {group name: expected unique IDs}.
        self._unique_ids: dict = {}

    # -- public API ---------------------------------------------------------

    def build(self, iterations: int = 1, first: int = 0) -> Graph:
        """Emit ``iterations`` chained training steps from step ``first``,
        after placeholders for step ``first - 1``'s ops they wait on."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        graph = Graph(name=f"{self.plan.model.name}-{self.plan.strategy}")
        self._prev_prefetch = {}
        prev_tail = prev_io = None
        if first > 0:
            prev_tail, prev_io = self._placeholders(graph, first - 1)
        for index in range(first, first + iterations):
            prev_tail, prev_io = self._build_iteration(
                graph, index, prev_tail, prev_io)
        return graph

    def activation_bytes(self) -> float:
        """Peak activation (feature-map) footprint on the device.

        Proportional to the effective batch per slice; D-Interleaving
        divides it, which is how PICASSO fits larger global batches
        (Fig. 8a, Tab. VII).
        """
        model = self.plan.model
        width = model.interaction_output_dim() + sum(model.mlp_layers)
        emb_width = sum(spec.embedding_dim * spec.seq_length
                        for spec in model.dataset.fields)
        slice_size = self.plan.batch_size / self.plan.micro_batches
        dense_part = slice_size * width * _FLOAT_BYTES * 2  # fwd + bwd
        if self.plan.micro_batch_scope == "all":
            emb_part = slice_size * emb_width * _FLOAT_BYTES
        else:
            emb_part = self.plan.batch_size * emb_width * _FLOAT_BYTES
        return dense_part + emb_part

    # -- internals ----------------------------------------------------------

    def _build_iteration(self, graph: Graph, index: int, prev_tail,
                         prev_io):
        plan = self.plan
        slices = plan.micro_batches if plan.micro_batch_scope == "all" else 1
        mlp_slices = plan.micro_batches

        io_op = self._io_op(graph, index)
        if prev_io is not None:
            graph.add_edge(prev_io, io_op)
        if not plan.io_overlap and prev_tail is not None:
            graph.add_edge(prev_tail, io_op)

        self._iter_prefetch = self._emit_prefetch_stream(graph, index,
                                                         io_op)

        tail_deps = []
        grad_outputs = []
        prev_slice_ops: dict = {}
        slice_join_ops = []
        for slice_index in range(slices):
            join = self._build_forward_backward(
                graph, index, slice_index, slices, mlp_slices // slices or 1,
                io_op, prev_tail, prev_slice_ops, grad_outputs)
            slice_join_ops.append(join)
        tail_deps.extend(slice_join_ops)

        update_ops = self._optimizer_and_comm(graph, index, grad_outputs,
                                              slice_join_ops)
        tail_deps.extend(update_ops)

        tail = Op(name=f"it{index}/step_end", kind=OpKind.CONTROL,
                  phases=[], micro_ops=0, tags={"layer": "control"})
        graph.add(tail)
        for op in tail_deps:
            graph.add_edge(op, tail)
        # Async PS lets the next step begin once local backward compute
        # is done (pushes drain in the background); sync strategies wait
        # for the full update barrier.
        sync_point = slice_join_ops[-1] if plan.is_async else tail
        return sync_point, io_op

    def _placeholders(self, graph: Graph, index: int) -> tuple:
        """Stand-ins for step ``index``'s ops the next step waits on."""
        plan = self.plan
        slices = plan.micro_batches if plan.micro_batch_scope == "all" else 1
        names = ["io", f"s{slices - 1}/slice_join" if plan.is_async
                 else "step_end"]
        if index >= 1 and plan.prefetch_share() > 0:
            names += [f"prefetch/{group.name}" for group in plan.groups]
        io_op, sync_point, *prefetch = [
            graph.add(Op(name=f"it{index}/{name}", kind=OpKind.CONTROL,
                         phases=[], micro_ops=0)) for name in names]
        self._prev_prefetch = {group.name: op
                               for group, op in zip(plan.groups, prefetch)}
        return sync_point, io_op

    def _io_op(self, graph: Graph, index: int) -> Op:
        plan = self.plan
        wire = batch_wire_bytes(plan.model.dataset, plan.batch_size) \
            * plan.io_compression
        op = Op(
            name=f"it{index}/io",
            kind=OpKind.IO_READ,
            phases=[
                Phase(ResourceKind.NET, wire,
                      max_rate=self._net_rate(wire)),
                Phase(ResourceKind.DRAM, wire * 2.0,
                      max_rate=self._bw_rate(ResourceKind.DRAM, wire * 2.0)),
            ],
            micro_ops=max(4, plan.model.dataset.num_fields // 4),
            tags={"layer": "io"},
        )
        return graph.add(op)

    def _group_unique(self, group, batch: int) -> float:
        """Expected unique IDs (at least 1) ``group`` looks up per
        ``batch`` rows, computed once per group and batch size."""
        known = self._unique_ids.setdefault(batch, {})
        unique = known.get(group.name)
        if unique is None:
            unique = known[group.name] = max(
                1.0, self.stats.group_unique_ids(group, batch))
        return unique

    # -- hot/cold lookahead prefetch ----------------------------------------

    def _prefetch_dedup(self, group, batch: int) -> float:
        """Cross-batch reuse discount over the lookahead window.

        A window of ``L`` batches shares IDs (Zipf reuse), so staging
        its union once costs ``unique(L*B) / (L * unique(B))`` of what
        ``L`` independent per-batch fetches would — Hotline's key win.
        """
        window = self.plan.prefetch_lookahead
        if window <= 1:
            return 1.0
        per_batch = self._group_unique(group, batch)
        window_unique = self._group_unique(group, batch * window)
        return min(1.0, max(1.0 / window,
                            window_unique / (window * per_batch)))

    def _prefetch_group_bytes(self) -> dict:
        """Per-group bytes the background stream stages each iteration.

        Returns ``({group.name: (cold_bytes, remote_bytes)}, share)``.
        ``share`` is the fraction of the synchronous fetch the stream
        replaces (:meth:`ExecutionPlan.prefetch_share`, uniformly
        shrunk if the window would overrun ``prefetch_inflight_bytes``);
        the per-group bytes are the share further discounted by the
        window's cross-batch reuse (:meth:`_prefetch_dedup`) and, for
        the remote slice, priced without the straggler premium — bulk
        background staging is not latency-bound, so it does not pay
        the exchange factor the synchronous AllToAllv does.  The
        mapping is empty (and the share 0.0) when the stream is
        disabled.
        """
        if self._prefetch_bytes_cache is not None:
            return self._prefetch_bytes_cache
        plan = self.plan
        share = plan.prefetch_share()
        if share <= 0.0:
            self._prefetch_bytes_cache = ({}, 0.0)
            return self._prefetch_bytes_cache
        slices = plan.micro_batches if plan.micro_batch_scope == "all" else 1
        batch = plan.batch_size / slices
        cold_fraction = 1.0 - (plan.cache_hit_ratio or 0.0)
        raw = {}
        staged_total = 0.0
        for group in plan.groups:
            unique = self._group_unique(group, int(batch))
            emb_bytes = unique * group.embedding_dim * _FLOAT_BYTES \
                * slices
            dedup = self._prefetch_dedup(group, int(batch) * slices)
            cold = emb_bytes * cold_fraction * dedup
            remote = 0.0
            if plan.uses_alltoall and self._workers > 1:
                remote = emb_bytes * (self._workers - 1) / self._workers
                remote *= dedup
            raw[group.name] = (cold, remote)
            staged_total += (cold + remote) * share
        if staged_total > plan.prefetch_inflight_bytes:
            share *= plan.prefetch_inflight_bytes / staged_total
        self._prefetch_bytes_cache = (
            {name: (cold * share, remote * share)
             for name, (cold, remote) in raw.items()}, share)
        return self._prefetch_bytes_cache

    def _prefetch_phases(self, cold_bytes: float, remote_bytes: float,
                         packed: bool) -> list:
        """Hardware demands of one group's staged window slice.

        The stream stages rows in bulk, which is where its advantage
        over the synchronous path comes from: the window's union is
        copied sequentially (no scatter amplification — the random
        per-row layout is resolved on-device at stitch time), the hash
        probe runs once over sorted IDs, and the wire transfer is one
        window-coalesced chunk that reaches NIC saturation instead of
        the fragmentary per-slice AllToAllv rate.  Each direction is
        charged twice: the staged fetch plus the previous window's
        lazy flush — deferred cold-gradient pushback on the wire,
        dirty-row writeback (the updates that landed on the HBM copy
        while the row was staged) over PCIe and into the host table.
        """
        plan = self.plan
        phases = []
        # Rates are priced at the whole window flush, not this group's
        # slice: the stream issues one coalesced burst per iteration
        # and the per-group phases are bookkeeping slices of it.
        flush_cold, flush_wire = self._prefetch_flush_bytes()
        if cold_bytes > 0:
            probe_factor = plan.cost.hash_probe_factor + 1.0
            phases.append(Phase(
                ResourceKind.DRAM, cold_bytes * probe_factor,
                max_rate=self._bw_rate(ResourceKind.DRAM,
                                       flush_cold * probe_factor)))
            phases.append(Phase(
                ResourceKind.PCIE, cold_bytes * 2.0,
                max_rate=self._bw_rate(ResourceKind.PCIE,
                                       flush_cold * 2.0)))
        if remote_bytes > 0:
            phases.append(Phase(ResourceKind.NET, remote_bytes * 2.0,
                                max_rate=self._net_rate(flush_wire)))
        return phases or [self._hbm_phase(1.0)]

    def _prefetch_flush_bytes(self) -> tuple:
        """(cold, wire) bytes of one whole coalesced window flush."""
        staged, _share = self._prefetch_group_bytes()
        cold_total = sum(cold for cold, _remote in staged.values())
        wire_total = sum(remote for _cold, remote in staged.values()) * 2.0
        return cold_total, wire_total

    def _emit_prefetch_stream(self, graph: Graph, index: int,
                              io_op: Op) -> dict:
        """Background prefetch ops for iteration ``index``.

        Ops depend on this iteration's I/O (IDs must be known) and on
        the same group's previous stream op (per-group in-order
        queues; the DMA and NIC engines work different groups
        concurrently) but NOT on the previous step's tail — that
        independence is what lets the staged fetch run under iteration
        ``index - 1``'s compute.  Iteration 0 is warm-up: nothing
        earlier to hide under, so the stream starts at iteration 1
        (Hotline's first-window discipline).  Returns
        ``{group.name: (op, share)}``.
        """
        if index < 1:
            return {}
        staged, share = self._prefetch_group_bytes()
        if not staged:
            return {}
        plan = self.plan
        ops = {}
        for group in plan.groups:
            cold, remote = staged[group.name]
            op = Op(
                name=f"it{index}/prefetch/{group.name}",
                kind=OpKind.PREFETCH,
                phases=self._prefetch_phases(cold, remote,
                                             group.is_packed),
                micro_ops=4,
                tags={"layer": "prefetch", "group": group.name})
            graph.add(op)
            graph.add_edge(io_op, op)
            prev = self._prev_prefetch.get(group.name)
            if prev is not None:
                graph.add_edge(prev, op)
            self._prev_prefetch[group.name] = op
            ops[group.name] = (op, share)
        return ops

    def _build_forward_backward(self, graph, index, slice_index, slices,
                                inner_mlp_slices, io_op, prev_tail,
                                prev_slice_ops, grad_outputs):
        """One data slice: embedding -> interaction -> MLP -> backward.

        Returns the join op after this slice's backward compute.
        """
        plan = self.plan
        batch = plan.batch_size / slices
        prefix = f"it{index}/s{slice_index}"

        group_exits = {}
        group_comm_ops = {}
        for group in plan.groups:
            entry, comm, exit_op = self._embedding_group_ops(
                graph, prefix, group, batch)
            graph.add_edge(io_op, entry)
            if prev_tail is not None:
                graph.add_edge(prev_tail, entry)
            key = ("emb", group.name)
            if key in prev_slice_ops:
                graph.add_edge(prev_slice_ops[key], entry)
            prev_slice_ops[key] = exit_op
            group_exits[group.name] = exit_op
            if comm is not None:
                group_comm_ops[group.name] = comm

        self._apply_interleave_order(graph, group_comm_ops)

        barrier = None
        if not plan.fine_grained_deps:
            barrier = Op(name=f"{prefix}/emb_barrier", kind=OpKind.CONCAT,
                         phases=[], micro_ops=2, tags={"layer": "embedding"})
            graph.add(barrier)
            for exit_op in group_exits.values():
                graph.add_edge(exit_op, barrier)

        module_outputs = []
        for module in plan.model.modules:
            op = self._interaction_op(graph, prefix, module, batch)
            module_outputs.append(op)
            if barrier is not None:
                graph.add_edge(barrier, op)
            else:
                for group in self._module_groups(module):
                    graph.add_edge(group_exits[group.name], op)
            # Pipeline order: slice s's module kernel follows slice
            # s-1's (stages stay in order, enabling genuine overlap of
            # compute with the earlier slices' collectives).
            key = ("mod", module.name)
            if key in prev_slice_ops:
                graph.add_edge(prev_slice_ops[key], op)
            prev_slice_ops[key] = op

        concat = Op(name=f"{prefix}/concat", kind=OpKind.CONCAT,
                    phases=[self._hbm_phase(
                        batch * plan.model.interaction_output_dim()
                        * _FLOAT_BYTES)],
                    micro_ops=max(2, len(module_outputs) // 4),
                    tags={"layer": "interaction"})
        graph.add(concat)
        for op in module_outputs:
            graph.add_edge(op, concat)

        mlp_tail = self._mlp_chain(graph, prefix, concat, batch,
                                   inner_mlp_slices)

        # Backward mirror: dense compute at backward_flops_factor x,
        # then per-group embedding gradients.
        bwd = Op(name=f"{prefix}/backward",
                 kind=OpKind.GRAD,
                 phases=self._dense_backward_phases(batch),
                 micro_ops=self._dense_backward_micro(),
                 tags={"layer": "backward"})
        graph.add(bwd)
        graph.add_edge(mlp_tail, bwd)
        if ("bwd",) in prev_slice_ops:
            graph.add_edge(prev_slice_ops[("bwd",)], bwd)
        prev_slice_ops[("bwd",)] = bwd

        join = Op(name=f"{prefix}/slice_join", kind=OpKind.CONTROL,
                  phases=[], micro_ops=0, tags={"layer": "control"})
        graph.add(join)
        graph.add_edge(bwd, join)

        for group in plan.groups:
            ops = self._embedding_backward_ops(graph, prefix, group, batch)
            graph.add_edge(bwd, ops[0])
            graph.add_edge(ops[-1], join)
            grad_outputs.append((group, ops[-1], batch))
        return join

    # -- embedding layer ----------------------------------------------------

    def _embedding_group_ops(self, graph, prefix, group, batch):
        """Forward ops of one embedding group.

        Returns ``(entry, comm_op_or_None, exit)``.
        """
        plan = self.plan
        cost = plan.cost
        ids = group.ids_per_batch(int(batch)) or 1.0
        unique = self._group_unique(group, int(batch))
        dim = group.embedding_dim
        id_bytes = ids * _ID_BYTES
        emb_bytes = unique * dim * _FLOAT_BYTES
        seq_factor = group.max_seq_factor
        field_count = 1 if group.is_packed else len(group.fields)
        tags = {"layer": "embedding", "group": group.name}

        def micro(kind):
            return int(EMB_MICRO_OPS[kind] * seq_factor * field_count)

        ops = []
        if plan.fuse_kernels:
            fused_micro = int((micro(OpKind.UNIQUE)
                               + micro(OpKind.PARTITION))
                              * FUSION_MICRO_FACTOR)
            unique_op = Op(
                name=f"{prefix}/{group.name}/unique_partition",
                kind=OpKind.UNIQUE_PARTITION,
                phases=[self._hbm_phase(id_bytes * cost.hash_probe_factor)],
                micro_ops=max(1, fused_micro), tags=tags)
            ops.append(graph.add(unique_op))
        else:
            unique_op = Op(
                name=f"{prefix}/{group.name}/unique",
                kind=OpKind.UNIQUE,
                phases=[self._hbm_phase(id_bytes * cost.hash_probe_factor)],
                micro_ops=micro(OpKind.UNIQUE), tags=tags)
            partition_op = Op(
                name=f"{prefix}/{group.name}/partition",
                kind=OpKind.PARTITION,
                phases=[self._hbm_phase(id_bytes * 2.0)],
                micro_ops=micro(OpKind.PARTITION), tags=tags)
            graph.add(unique_op)
            graph.add(partition_op)
            graph.add_edge(unique_op, partition_op)
            ops.extend([unique_op, partition_op])

        # Rows the background stream already staged (hot/cold
        # lookahead): the synchronous gather and exchange shrink by the
        # staged share, and gate on the stream op that staged them.
        prefetched = self._iter_prefetch.get(group.name)
        sync_scale = 1.0 - prefetched[1] if prefetched is not None else 1.0

        gather_op = None
        if plan.strategy not in ("ps-async", "ps-sync"):
            # PS workers hold no table shard: the server performs the
            # gather, whose cost rides on the pull below.
            gather_op = Op(
                name=f"{prefix}/{group.name}/gather",
                kind=OpKind.GATHER,
                phases=self._gather_phases(emb_bytes, group.is_packed,
                                           cold_scale=sync_scale),
                micro_ops=micro(OpKind.GATHER), tags=tags)
            graph.add(gather_op)
            graph.add_edge(ops[-1], gather_op)
            if prefetched is not None:
                graph.add_edge(prefetched[0], gather_op)
            ops.append(gather_op)

        comm_op = None
        if plan.uses_alltoall and self._workers > 1:
            remote_bytes = emb_bytes * (self._workers - 1) / self._workers
            remote_bytes *= plan.exchange_factor() * sync_scale
            if plan.fuse_kernels:
                comm_op = Op(
                    name=f"{prefix}/{group.name}/shuffle_stitch",
                    kind=OpKind.SHUFFLE_STITCH,
                    phases=self._shuffle_phases(remote_bytes,
                                                stitch_bytes=emb_bytes),
                    micro_ops=max(1, int((micro(OpKind.SHUFFLE)
                                          + micro(OpKind.STITCH))
                                         * FUSION_MICRO_FACTOR)),
                    tags=tags)
                graph.add(comm_op)
                graph.add_edge(gather_op, comm_op)
                ops.append(comm_op)
            else:
                shuffle_op = Op(
                    name=f"{prefix}/{group.name}/shuffle",
                    kind=OpKind.SHUFFLE,
                    phases=self._shuffle_phases(remote_bytes),
                    micro_ops=micro(OpKind.SHUFFLE), tags=tags)
                stitch_op = Op(
                    name=f"{prefix}/{group.name}/stitch",
                    kind=OpKind.STITCH,
                    phases=[self._hbm_phase(emb_bytes * 2.0)],
                    micro_ops=micro(OpKind.STITCH), tags=tags)
                graph.add(shuffle_op)
                graph.add(stitch_op)
                graph.add_edge(gather_op, shuffle_op)
                graph.add_edge(shuffle_op, stitch_op)
                comm_op = shuffle_op
                ops.extend([shuffle_op, stitch_op])
        elif plan.strategy in ("ps-async", "ps-sync"):
            pull_bytes = emb_bytes * plan.cost.straggler_factor
            pull_op = Op(
                name=f"{prefix}/{group.name}/ps_pull",
                kind=OpKind.PS_PULL,
                phases=[
                    Phase(ResourceKind.NET, pull_bytes,
                          max_rate=min(self._net_rate(pull_bytes),
                                       plan.ps_serving_rate)),
                    Phase(ResourceKind.PCIE, emb_bytes,
                          max_rate=self._bw_rate(ResourceKind.PCIE,
                                                 emb_bytes)),
                ],
                micro_ops=micro(OpKind.SHUFFLE), tags=tags)
            graph.add(pull_op)
            graph.add_edge(ops[-1], pull_op)
            comm_op = pull_op
            ops.append(pull_op)

        # Only the host-resident (cold) slice of the stitched feature
        # map streams over PCIe; hot rows and GPUDirect shuffle output
        # are already device-resident.
        cold_fraction = 1.0 - (plan.cache_hit_ratio or 0.0)
        feature_map_bytes = batch * sum(
            spec.embedding_dim for spec in group.fields) * _FLOAT_BYTES \
            * group.shard_fraction * cold_fraction * 0.5
        h2d_op = Op(
            name=f"{prefix}/{group.name}/h2d",
            kind=OpKind.H2D,
            phases=[Phase(ResourceKind.PCIE, max(feature_map_bytes, 1.0),
                          max_rate=self._bw_rate(ResourceKind.PCIE,
                                                 feature_map_bytes))],
            micro_ops=2, tags=tags)
        graph.add(h2d_op)
        graph.add_edge(ops[-1], h2d_op)
        ops.append(h2d_op)

        if any(spec.seq_length > 1 for spec in group.fields):
            pooled_ids = group.ids_per_batch(int(batch))
            reduce_op = Op(
                name=f"{prefix}/{group.name}/segment_reduce",
                kind=OpKind.SEGMENT_REDUCE,
                phases=[
                    self._hbm_phase(pooled_ids * dim * _FLOAT_BYTES),
                    self._sm_phase(pooled_ids * dim),
                ],
                micro_ops=micro(OpKind.SEGMENT_REDUCE), tags=tags)
            graph.add(reduce_op)
            graph.add_edge(ops[-1], reduce_op)
            ops.append(reduce_op)

        return ops[0], comm_op, ops[-1]

    def _embedding_backward_ops(self, graph, prefix, group, batch):
        """Gradient scatter + (strategy-specific) comm + sparse update."""
        plan = self.plan
        unique = self._group_unique(group, int(batch))
        dim = group.embedding_dim
        emb_bytes = unique * dim * _FLOAT_BYTES
        seq_factor = group.max_seq_factor
        field_count = 1 if group.is_packed else len(group.fields)
        tags = {"layer": "emb_backward", "group": group.name}

        def micro(kind):
            return int(EMB_MICRO_OPS[kind] * seq_factor * field_count)

        grad_op = Op(
            name=f"{prefix}/{group.name}/emb_grad",
            kind=OpKind.EMB_GRAD,
            phases=[self._hbm_phase(emb_bytes * 2.0)],
            micro_ops=micro(OpKind.EMB_GRAD), tags=tags)
        graph.add(grad_op)
        ops = [grad_op]

        # Gradients for rows the stream staged are pushed back on the
        # stream too (deferred, coalesced — priced in the prefetch
        # op's wire phase), so only the hot share exchanges here.
        prefetched = self._iter_prefetch.get(group.name)
        sync_scale = 1.0 - prefetched[1] if prefetched is not None else 1.0

        if plan.uses_alltoall and self._workers > 1:
            remote = emb_bytes * (self._workers - 1) / self._workers
            remote *= plan.exchange_factor() * sync_scale
            back_op = Op(
                name=f"{prefix}/{group.name}/grad_shuffle",
                kind=OpKind.ALLTOALL,
                phases=self._shuffle_phases(remote),
                micro_ops=max(1, int(micro(OpKind.SHUFFLE) * 0.7)),
                tags=tags)
            graph.add(back_op)
            graph.add_edge(grad_op, back_op)
            ops.append(back_op)
        elif plan.strategy in ("ps-async", "ps-sync"):
            push_bytes = emb_bytes * plan.cost.straggler_factor
            push_op = Op(
                name=f"{prefix}/{group.name}/ps_push",
                kind=OpKind.PS_PUSH,
                phases=[
                    Phase(ResourceKind.PCIE, emb_bytes,
                          max_rate=self._bw_rate(ResourceKind.PCIE,
                                                 emb_bytes)),
                    Phase(ResourceKind.NET, push_bytes,
                          max_rate=min(self._net_rate(push_bytes),
                                       plan.ps_serving_rate)),
                ],
                micro_ops=max(1, int(micro(OpKind.SHUFFLE) * 0.7)),
                tags=tags)
            graph.add(push_op)
            graph.add_edge(grad_op, push_op)
            ops.append(push_op)
        elif plan.strategy == "dp" and self._workers > 1:
            reduce_bytes = (2.0 * emb_bytes * (self._workers - 1)
                            / self._workers * plan.cost.straggler_factor)
            reduce_op = Op(
                name=f"{prefix}/{group.name}/grad_allreduce",
                kind=OpKind.ALLREDUCE,
                phases=self._shuffle_phases(reduce_bytes),
                micro_ops=max(1, int(micro(OpKind.SHUFFLE) * 0.7)),
                tags=tags)
            graph.add(reduce_op)
            graph.add_edge(grad_op, reduce_op)
            ops.append(reduce_op)
        return ops

    # -- dense layers ---------------------------------------------------

    def _interaction_op(self, graph, prefix, module, batch) -> Op:
        plan = self.plan
        fields = plan.model.field_specs(module)
        flops = interaction_flops_per_instance(module, fields) * batch
        flops *= module.repeats
        base_micro = MODULE_MICRO_OPS[module.kind]
        seq = max((spec.seq_length for spec in fields), default=1)
        seq_scale = 1.0 + seq / 8.0
        if module.kind in (InteractionKind.CONCAT, InteractionKind.LINEAR):
            micro = base_micro * len(fields)
        elif module.kind in (InteractionKind.EXPERT, InteractionKind.GATE,
                             InteractionKind.TOWER,
                             InteractionKind.STAR_FCN):
            micro = base_micro * max(1, len(fields) // 2)
        else:
            micro = int(base_micro * seq_scale)
        if plan.fuse_kernels:
            # K-Packing fuses the module's repeated instances into one
            # batched kernel.
            micro = max(1, int(micro * FUSION_MICRO_FACTOR))
        else:
            micro *= module.repeats
        op = Op(
            name=f"{prefix}/mod/{module.name}",
            kind=OpKind.INTERACTION,
            phases=[self._sm_phase(
                flops, fused=plan.fuse_kernels or module.repeats == 1)],
            micro_ops=micro,
            tags={"layer": "interaction", "module": module.name})
        return graph.add(op)

    def _mlp_chain(self, graph, prefix, concat, batch, inner_slices) -> Op:
        plan = self.plan
        widths = [plan.model.interaction_output_dim(),
                  *plan.model.mlp_layers, plan.model.num_tasks]
        prev_by_slice = [concat] * inner_slices
        last_ops = []
        for layer, (w_in, w_out) in enumerate(
                zip(widths[:-1], widths[1:])):
            for inner in range(inner_slices):
                flops = 2.0 * (batch / inner_slices) * w_in * w_out
                op = Op(
                    name=f"{prefix}/mlp{layer}/m{inner}",
                    kind=OpKind.MLP,
                    phases=[self._sm_phase(flops)],
                    micro_ops=10,
                    tags={"layer": "mlp"})
                graph.add(op)
                graph.add_edge(prev_by_slice[inner], op)
                if inner > 0:
                    # Keep micro-batches ordered within a layer so the
                    # pipeline stays load-balanced.
                    graph.add_edge(graph.op(f"{prefix}/mlp{layer}"
                                            f"/m{inner - 1}"), op)
                prev_by_slice[inner] = op
            last_ops = list(prev_by_slice)
        loss = Op(name=f"{prefix}/loss", kind=OpKind.LOSS,
                  phases=[self._sm_phase(batch * 16.0)],
                  micro_ops=8, tags={"layer": "mlp"})
        graph.add(loss)
        for op in last_ops:
            graph.add_edge(op, loss)
        return loss

    def _dense_backward_phases(self, batch) -> list:
        plan = self.plan
        model = plan.model
        widths = [model.interaction_output_dim(), *model.mlp_layers,
                  model.num_tasks]
        mlp_flops = sum(2.0 * batch * w_in * w_out
                        for w_in, w_out in zip(widths[:-1], widths[1:]))
        interaction_flops = sum(
            interaction_flops_per_instance(module,
                                           model.field_specs(module))
            * batch * module.repeats
            for module in model.modules)
        total = (mlp_flops + interaction_flops) \
            * plan.cost.backward_flops_factor
        return [self._sm_phase(total, fused=plan.fuse_kernels)]

    def _dense_backward_micro(self) -> int:
        plan = self.plan
        model = plan.model
        micro = 10 * (len(model.mlp_layers) + 1)
        for module in model.modules:
            base = MODULE_MICRO_OPS[module.kind]
            repeats = 1 if plan.fuse_kernels else module.repeats
            micro += int(base * repeats * 0.8)
        if plan.fuse_kernels:
            micro = max(1, int(micro * FUSION_MICRO_FACTOR))
        return micro

    def _optimizer_and_comm(self, graph, index, grad_outputs,
                            slice_joins) -> list:
        """Dense gradient collective + optimizer updates (per iteration)."""
        plan = self.plan
        cost = plan.cost
        dense_params = plan.model.dense_parameters()
        dense_bytes = dense_params * _FLOAT_BYTES
        tail_ops = []

        comm_dep = slice_joins[-1] if slice_joins else None
        if plan.strategy in ("dp", "hybrid", "mp") and self._workers > 1:
            # Gradient-bucket overlap: with D-Interleaving each slice's
            # dense gradients reduce as soon as that slice's backward
            # finishes, hiding the collective under later slices'
            # compute.  Without micro-batching this degenerates to one
            # barrier allreduce, as in the unoptimized baselines.
            reduce_bytes = (2.0 * dense_bytes * (self._workers - 1)
                            / self._workers * cost.straggler_factor)
            chunk = reduce_bytes / max(1, len(slice_joins))
            previous = None
            for rank, join in enumerate(slice_joins):
                allreduce = Op(
                    name=f"it{index}/dense_allreduce{rank}",
                    kind=OpKind.ALLREDUCE,
                    phases=self._shuffle_phases(chunk),
                    micro_ops=12,
                    tags={"layer": "dense_comm"})
                graph.add(allreduce)
                graph.add_edge(join, allreduce)
                if previous is not None:
                    graph.add_edge(previous, allreduce)
                previous = allreduce
            comm_dep = previous
            tail_ops.append(previous)
        elif plan.strategy in ("ps-async", "ps-sync"):
            pull_bytes = dense_bytes * plan.cost.straggler_factor
            dense_ps = Op(
                name=f"it{index}/dense_ps_sync",
                kind=OpKind.PS_PULL,
                phases=[Phase(ResourceKind.NET, 2.0 * pull_bytes,
                              max_rate=self._net_rate(pull_bytes)
                              * plan.ps_bandwidth_factor)],
                micro_ops=16,
                tags={"layer": "dense_comm"})
            graph.add(dense_ps)
            for join in slice_joins:
                graph.add_edge(join, dense_ps)
            comm_dep = dense_ps
            tail_ops.append(dense_ps)

        opt_dense = Op(
            name=f"it{index}/opt_dense",
            kind=OpKind.OPT_DENSE,
            phases=[self._hbm_phase(
                dense_bytes * plan.cost.optimizer_slots)],
            micro_ops=8,
            tags={"layer": "optimizer"})
        graph.add(opt_dense)
        if comm_dep is not None:
            graph.add_edge(comm_dep, opt_dense)
        tail_ops.append(opt_dense)

        for group, last_op, batch in grad_outputs:
            unique = self._group_unique(group, int(batch))
            update_bytes = (unique * group.embedding_dim * _FLOAT_BYTES
                            * cost.optimizer_slots)
            seq_factor = group.max_seq_factor
            field_count = 1 if group.is_packed else len(group.fields)
            prefetched = self._iter_prefetch.get(group.name)
            opt_scale = 1.0 - prefetched[1] if prefetched is not None \
                else 1.0
            opt_op = Op(
                name=f"it{index}/opt/{group.name}/"
                     f"{last_op.name.split('/')[1]}",
                kind=OpKind.OPT_SPARSE,
                phases=self._sparse_update_phases(update_bytes,
                                                  group.is_packed,
                                                  cold_scale=opt_scale),
                micro_ops=int(EMB_MICRO_OPS[OpKind.OPT_SPARSE]
                              * seq_factor * field_count),
                tags={"layer": "optimizer", "group": group.name})
            graph.add(opt_op)
            graph.add_edge(last_op, opt_op)
            if not plan.is_async:
                tail_ops.append(opt_op)
        return tail_ops

    # -- interleaving ---------------------------------------------------

    def _apply_interleave_order(self, graph, group_comm_ops) -> None:
        """Serialize communication across K-Interleaving sets.

        Within a set, comm ops race (that is the set's capacity); the
        next set's comm waits for the previous set's, freeing the
        network for one set at a time while other sets compute.
        """
        plan = self.plan
        if plan.interleave_sets <= 1 or not group_comm_ops:
            return
        sets: dict = {}
        for group in plan.groups:
            comm = group_comm_ops.get(group.name)
            if comm is None or group.excluded:
                continue
            sets.setdefault(group.interleave_set, []).append(comm)
        ordered = sorted(sets)
        for prev_key, next_key in zip(ordered[:-1], ordered[1:]):
            for prev_op in sets[prev_key]:
                for next_op in sets[next_key]:
                    graph.add_edge(prev_op, next_op)

    def _module_groups(self, module) -> list:
        groups = []
        seen = set()
        for name in module.fields:
            group = self._field_to_group[name]
            if group.name not in seen:
                seen.add(group.name)
                groups.append(group)
        return groups

    # -- phase helpers ----------------------------------------------------

    def _sm_phase(self, flops: float, fused: bool = True) -> Phase:
        cost = self.plan.cost
        capacity = self._node.gpu.fp32_flops
        saturation = cost.sm_saturation_flops
        if not fused:
            # Unfused repeated modules issue many small kernels; their
            # effective occupancy is that of one instance.
            saturation = saturation * 4.0
        return Phase(ResourceKind.GPU_SM, max(flops, 1.0),
                     max_rate=efficiency_capped_rate(
                         capacity, flops, saturation))

    def _hbm_phase(self, bytes_: float) -> Phase:
        return Phase(ResourceKind.HBM, max(bytes_, 1.0),
                     max_rate=self._bw_rate(ResourceKind.HBM, bytes_))

    def _bw_rate(self, kind: ResourceKind, bytes_: float) -> float:
        cost = self.plan.cost
        capacities = {
            ResourceKind.HBM: self._node.gpu.hbm_bandwidth,
            ResourceKind.DRAM: self._node.dram.bandwidth
            / max(1, self._node.gpus_per_node),
            ResourceKind.PCIE: self._node.pcie.bandwidth,
        }
        return efficiency_capped_rate(capacities[kind], bytes_,
                                      cost.bw_saturation_bytes)

    def _net_rate(self, bytes_: float) -> float:
        cost = self.plan.cost
        capacity = self._node.network.bandwidth \
            / max(1, self._node.gpus_per_node)
        rate = efficiency_capped_rate(capacity, bytes_,
                                      cost.net_saturation_bytes)
        return min(rate, self.plan.net_stack_rate)

    def _nvlink_rate(self, bytes_: float) -> float:
        cost = self.plan.cost
        link = self._node.nvlink
        if link is None:
            return 1.0
        return efficiency_capped_rate(link.bandwidth, bytes_,
                                      cost.bw_saturation_bytes)

    def _scatter_amplification(self, packed: bool) -> float:
        """Work multiplier for scattered embedding-row traffic."""
        cost = self.plan.cost
        return (cost.packed_scatter_amplification if packed
                else cost.scatter_amplification)

    def _gather_phases(self, emb_bytes: float, packed: bool,
                       cold_scale: float = 1.0) -> list:
        """Local embedding fetch: cache-split between HBM and DRAM+PCIe.

        ``cold_scale`` shrinks the cold (DRAM+PCIe) slice by whatever
        fraction the background prefetch stream already staged; hot
        HBM traffic is unaffected (those rows were resident anyway).
        """
        plan = self.plan
        # Symmetric MP serving: this worker's shard answers every
        # worker's requests, so per-step gather volume equals one full
        # batch's unique rows regardless of the worker count.
        local_bytes = emb_bytes
        hit = plan.cache_hit_ratio or 0.0
        hot_bytes = local_bytes * hit
        cold_bytes = local_bytes * (1.0 - hit) * cold_scale
        phases = []
        if hot_bytes > 0:
            phases.append(self._hbm_phase(hot_bytes))
        if cold_bytes > 0:
            amp = self._scatter_amplification(packed)
            probe = cold_bytes * plan.cost.hash_probe_factor
            phases.append(Phase(
                ResourceKind.DRAM, probe * amp,
                max_rate=self._bw_rate(ResourceKind.DRAM, probe)))
            phases.append(Phase(
                ResourceKind.PCIE, cold_bytes * amp,
                max_rate=self._bw_rate(ResourceKind.PCIE, cold_bytes)))
        return phases or [self._hbm_phase(1.0)]

    def _shuffle_phases(self, remote_bytes: float,
                        stitch_bytes: float = 0.0) -> list:
        """AllToAllv / Allreduce traffic split across NVLink and NIC."""
        node = self._node
        workers = self._workers
        phases = []
        if workers > 1 and node.has_nvlink:
            peers_intra = node.gpus_per_node - 1
            intra_fraction = peers_intra / (workers - 1)
            intra = remote_bytes * intra_fraction
            inter = remote_bytes - intra
            if intra > 0:
                phases.append(Phase(ResourceKind.NVLINK, intra,
                                    max_rate=self._nvlink_rate(intra)))
            if inter > 0:
                phases.append(Phase(ResourceKind.NET, inter,
                                    max_rate=self._net_rate(inter)))
        elif remote_bytes > 0:
            phases.append(Phase(ResourceKind.NET, remote_bytes,
                                max_rate=self._net_rate(remote_bytes)))
        if stitch_bytes > 0:
            phases.append(self._hbm_phase(stitch_bytes))
        return phases or [self._hbm_phase(1.0)]

    def _sparse_update_phases(self, update_bytes: float,
                              packed: bool,
                              cold_scale: float = 1.0) -> list:
        """Optimizer writes: hot part on HBM, the rest behind PCIe+DRAM.

        ``cold_scale`` shrinks the scattered host-side write slice by
        the share the prefetch stream staged: staged rows are
        device-resident for the window, so their updates land on the
        HBM copy and write back lazily on the stream (one coalesced
        flush, priced in the prefetch op) instead of scattering over
        PCIe every step.
        """
        hit = self.plan.cache_hit_ratio or 0.0
        phases = []
        cold = update_bytes * (1.0 - hit)
        hot = update_bytes * hit + cold * (1.0 - cold_scale)
        cold *= cold_scale
        if hot > 0:
            phases.append(self._hbm_phase(hot))
        if cold > 0:
            amp = self._scatter_amplification(packed)
            phases.append(Phase(
                ResourceKind.PCIE, cold * amp,
                max_rate=self._bw_rate(ResourceKind.PCIE, cold)))
            phases.append(Phase(
                ResourceKind.DRAM, cold * amp,
                max_rate=self._bw_rate(ResourceKind.DRAM, cold)))
        return phases or [self._hbm_phase(1.0)]
