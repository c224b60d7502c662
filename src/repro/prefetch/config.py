"""The unified prefetch facade config.

:class:`PrefetchConfig` is the one declarative surface for the
hot/cold lookahead pipeline (Hotline, arXiv 2204.05436): how far ahead
the scheduler may look, what counts as a "hot" (tier-resident) batch,
how many staged bytes may be in flight, and which batch classifier
decides.  The same object embeds in :class:`~repro.api.RunConfig`,
:class:`~repro.api.ServeConfig` and :class:`~repro.api.StreamConfig`,
so one JSON snapshot configures prefetching on all three facade legs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config_base import ConfigBase, require_choice, require_positive
from repro.prefetch.classifiers import batch_classifiers

_MIB = float(1 << 20)


@dataclass(frozen=True)
class PrefetchConfig(ConfigBase):
    """Knobs of the cross-batch hot/cold lookahead pipeline.

    :param lookahead_depth: how many upcoming batches the scheduler
        may inspect (and reorder within); ``1`` disables reordering —
        the pipeline degenerates to today's strict-FIFO trainer.
    :param hot_threshold: minimum fast-tier-resident fraction of a
        batch's unique IDs for it to classify *hot* (run immediately);
        batches below it are *cold* and stage in the background.
    :param max_inflight_bytes: cap on bytes concurrently staged on the
        background stream; a cold batch that cannot stage under the
        cap is never deferred (it runs in arrival order instead).
    :param policy: registered batch-classifier name
        (:func:`repro.prefetch.batch_classifiers` lists the choices;
        ``"fifo"`` keeps arrival order bit-for-bit).
    """

    lookahead_depth: int = 4
    hot_threshold: float = 0.6
    max_inflight_bytes: float = 256.0 * _MIB
    policy: str = "hotness"

    def __post_init__(self) -> None:
        require_positive(self, "lookahead_depth")
        if not 0.0 <= self.hot_threshold <= 1.0:
            raise ValueError(
                f"hot_threshold must be in [0, 1], "
                f"got {self.hot_threshold}")
        require_positive(self, "max_inflight_bytes", integer=False)
        require_choice(self, "policy", batch_classifiers())

    @property
    def reorders(self) -> bool:
        """Whether this config can emit out of arrival order at all."""
        return self.lookahead_depth > 1 and self.policy != "fifo"
