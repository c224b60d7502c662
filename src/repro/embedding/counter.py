"""Host-side ID frequency counting (``FCounter`` in Algorithm 1)."""

from __future__ import annotations

from collections import Counter

import numpy as np


class FrequencyCounter:
    """Counts categorical-ID occurrences and reports the top-k set.

    This is the statistics component of ``HybridHash``: during warm-up
    (and after it) every queried ID increments its count; periodically
    the hottest ``k`` IDs are promoted to Hot-storage.
    """

    def __init__(self):
        self._counts: Counter = Counter()

    def observe(self, ids: np.ndarray) -> None:
        """Record one query batch."""
        values, counts = np.unique(np.asarray(ids).ravel(),
                                   return_counts=True)
        for value, count in zip(values.tolist(), counts.tolist()):
            self._counts[int(value)] += int(count)

    def count(self, key: int) -> int:
        """Occurrences recorded for one ID."""
        return self._counts.get(int(key), 0)

    def top_k(self, k: int) -> list:
        """The ``k`` most frequent IDs (most frequent first)."""
        return [key for key, _count in self.most_common(k)]

    def most_common(self, k: int) -> list:
        """``[(id, count), ...]`` for the ``k`` most frequent IDs.

        The statistics surface the shard planner's observed
        :class:`~repro.embedding.placement.LoadProfile` and the
        delta-snapshot hot-row ordering consume.  Count ties break
        deterministically on the smaller ID: ``Counter.most_common``
        falls back to insertion order, which depends on the batch
        arrival interleaving, so hot-set membership at the boundary
        would otherwise differ between runs that saw the same
        multiset of IDs in different orders.
        """
        if k <= 0:
            return []
        ordered = sorted(self._counts.items(),
                         key=lambda item: (-item[1], item[0]))
        return [(int(key), int(count)) for key, count in ordered[:k]]

    def distinct_ids(self) -> int:
        """How many distinct IDs have been observed."""
        return len(self._counts)

    def total_observations(self) -> int:
        """Total ID occurrences observed."""
        return sum(self._counts.values())

    def reset(self) -> None:
        """Forget all statistics."""
        self._counts.clear()
