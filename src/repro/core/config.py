"""PICASSO configuration: the knobs of the three optimizations.

Disabling individual optimizations reproduces the ablation study
(Tab. IV); ``PicassoConfig.base()`` reproduces "PICASSO(Base)" — the
pure hybrid-parallel strategy without software-system optimization
(Fig. 13).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from repro.config_base import (ConfigBase, codec, require_choice,
                               require_positive)
from repro.graph.builder import CostModel
from repro.prefetch.classifiers import batch_classifiers

_GIB = float(1 << 30)
_MIB = float(1 << 20)


@dataclass(frozen=True)
class PicassoConfig(ConfigBase):
    """Feature toggles and tunables for a PICASSO training session.

    :param enable_packing: D-Packing (merge per-field embedding ops by
        dimension, Eq. 1 sharding) + K-Packing (same-group kernel
        fusion).
    :param enable_interleaving: K-Interleaving (Eq. 3 group pipelines)
        + D-Interleaving (Eq. 2 micro-batching).
    :param enable_caching: ``HybridHash`` hot/cold embedding cache.
    :param interleave_sets: explicit K-Interleaving set count, or
        ``None`` to size by Eq. 3.
    :param micro_batches: explicit D-Interleaving slice count, or
        ``None`` to size by Eq. 2.
    :param micro_batch_scope: ``"all"`` (slice from the embedding
        layer) or ``"mlp"`` (slice only the dense tail).
    :param hot_storage_bytes: Hot-storage (GPU) budget for HybridHash;
        the paper's default production setting is 1 GB.
    :param warmup_iters: statistics-collection iterations before the
        cache (and Eq. 1/2 estimates) activate.
    :param flush_iters: hot-set refresh period.
    :param excluded_fields: preset-excluded embeddings whose packed ops
        skip K-Interleaving ordering (SS III-C).
    :param device_memory_budget: GPU bytes available for activations
        when Eq. 2 sizes micro-batches (device memory minus parameters,
        workspace and the hot cache).
    :param shard_policy: embedding shard placement — ``"hash"`` (naive
        modulo sharding; exchange priced with the cost model's generic
        straggler factor) or ``"planned"`` (skew-aware
        :class:`~repro.embedding.placement.ShardPlanner` placement;
        the execution plan prices exchanges with the planner's
        predicted max/mean shard-bytes ratio).
    :param prefetch_lookahead: hot/cold lookahead window depth
        (Hotline, arXiv 2204.05436).  Depths above 1 stage the
        predicted-cold share of the next iteration's embedding rows on
        a background prefetch stream that overlaps the current
        iteration's compute; 1 disables the stream.
    :param prefetch_hot_threshold: residency score in ``[0, 1]`` above
        which a row counts as hot (already resident, not worth
        staging); higher thresholds classify more rows as
        cold-and-prefetchable.
    :param prefetch_inflight_bytes: cap on bytes the stream may stage
        per window before consumers drain them.
    :param prefetch_policy: batch-classifier name (``"hotness"`` or
        the ``"fifo"`` null classifier, which never reorders and emits
        no stream — byte-identical to the pre-prefetch builder).
    """

    enable_packing: bool = True
    enable_interleaving: bool = True
    enable_caching: bool = True
    interleave_sets: int | None = None
    micro_batches: int | None = None
    micro_batch_scope: str = "all"
    hot_storage_bytes: float = 1.0 * _GIB
    warmup_iters: int = 100
    flush_iters: int = 100
    excluded_fields: tuple = ()
    device_memory_budget: float = 16.0 * _GIB
    cost: CostModel = field(default_factory=CostModel)
    shard_policy: str = "hash"
    prefetch_lookahead: int = 1
    prefetch_hot_threshold: float = 0.6
    prefetch_inflight_bytes: float = 256.0 * _MIB
    prefetch_policy: str = "hotness"

    _FIELD_CODECS = {
        "cost": codec(asdict,
                      lambda value: CostModel(**value)
                      if isinstance(value, dict) else value),
        "excluded_fields": codec(list, tuple),
    }

    def __post_init__(self) -> None:
        require_choice(self, "shard_policy", ("hash", "planned"))
        require_choice(self, "micro_batch_scope", ("all", "mlp"))
        if self.interleave_sets is not None and self.interleave_sets < 1:
            raise ValueError(
                f"interleave_sets must be >= 1 or None, "
                f"got {self.interleave_sets}")
        if self.micro_batches is not None and self.micro_batches < 1:
            raise ValueError(
                f"micro_batches must be >= 1 or None, "
                f"got {self.micro_batches}")
        require_positive(self, "hot_storage_bytes", integer=False,
                         zero=True)
        require_positive(self, "device_memory_budget",
                         "prefetch_inflight_bytes", integer=False)
        require_positive(self, "flush_iters", "prefetch_lookahead")
        if not 0.0 <= self.prefetch_hot_threshold <= 1.0:
            raise ValueError(
                f"prefetch_hot_threshold must be in [0, 1], "
                f"got {self.prefetch_hot_threshold}")
        require_choice(self, "prefetch_policy", batch_classifiers())

    @classmethod
    def base(cls) -> "PicassoConfig":
        """PICASSO(Base): hybrid strategy, no software optimizations."""
        return cls(enable_packing=False, enable_interleaving=False,
                   enable_caching=False)

    def without(self, optimization: str) -> "PicassoConfig":
        """Ablation helper: a copy with one optimization disabled.

        ``optimization`` is ``"packing"``, ``"interleaving"`` or
        ``"caching"``.
        """
        toggles = {
            "packing": "enable_packing",
            "interleaving": "enable_interleaving",
            "caching": "enable_caching",
        }
        if optimization not in toggles:
            raise ValueError(
                f"unknown optimization {optimization!r}; expected one of "
                f"{sorted(toggles)}")
        return replace(self, **{toggles[optimization]: False})
