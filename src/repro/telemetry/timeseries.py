"""Time-series telemetry: an EWMA and a log-bucket histogram.

Spans answer "when"; this module answers "how is it trending".
Producers push samples as they happen — sim interval rates, serving
completions, per-iteration cache hit ratios — and two reducers turn
the stream into monitorable signals:

* :class:`Ewma` — exponentially weighted moving average, the smoothed
  level health monitors threshold against;
* :class:`Histogram` — a log-bucket histogram with exact-bound
  quantile queries, the latency distribution behind
  :class:`~repro.serving.metrics.ServingReport`'s percentiles.

Everything here is a pure function of the observed samples, so
deterministic runs produce byte-identical exports.
"""

from __future__ import annotations

import math

#: Default per-bucket relative width of :class:`Histogram` (2%).
DEFAULT_GROWTH = 1.02

#: Default smallest resolvable histogram value (1 ns, in seconds).
DEFAULT_MIN_VALUE = 1e-9


class Ewma:
    """Exponentially weighted moving average of a sample stream.

    ``value`` after ``update(x)`` is ``alpha * x + (1-alpha) * value``;
    the first sample initializes the level directly (no bias toward an
    arbitrary zero start).
    """

    def __init__(self, alpha: float = 0.2):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self.value: float | None = None
        self.count = 0

    def update(self, sample: float) -> float:
        """Fold one sample in; returns the new smoothed level."""
        sample = float(sample)
        if self.value is None:
            self.value = sample
        else:
            self.value = self.alpha * sample \
                + (1.0 - self.alpha) * self.value
        self.count += 1
        return self.value


class Histogram:
    """Log-bucket histogram with exact-bound quantiles.

    Values land in geometric buckets: bucket ``i`` covers
    ``[min_value * growth**i, min_value * growth**(i+1))`` and values
    below ``min_value`` clamp into bucket 0.  Quantile queries return
    the containing bucket's *upper bound*, clamped to the exact
    observed maximum — so the answer is always a true upper bound on
    the requested quantile, and is at most one bucket's relative width
    (``growth - 1``, 2% by default) above it.
    """

    def __init__(self, growth: float = DEFAULT_GROWTH,
                 min_value: float = DEFAULT_MIN_VALUE):
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        if min_value <= 0.0:
            raise ValueError(f"min_value must be > 0, got {min_value}")
        self.growth = float(growth)
        self.min_value = float(min_value)
        self._log_growth = math.log(self.growth)
        self._buckets: dict = {}  # bucket index -> count
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    @classmethod
    def from_values(cls, values, growth: float = DEFAULT_GROWTH,
                    min_value: float = DEFAULT_MIN_VALUE) -> "Histogram":
        """A histogram pre-filled from an iterable of samples."""
        histogram = cls(growth=growth, min_value=min_value)
        for value in values:
            histogram.observe(value)
        return histogram

    def _bucket_index(self, value: float) -> int:
        if value < self.min_value:
            return 0
        return int(math.log(value / self.min_value) // self._log_growth)

    def bucket_upper_bound(self, index: int) -> float:
        """Exclusive upper edge of bucket ``index``."""
        return self.min_value * self.growth ** (index + 1)

    def observe(self, value: float) -> None:
        """Record one sample (must be >= 0)."""
        value = float(value)
        if value < 0 or not math.isfinite(value):
            raise ValueError(
                f"histogram values must be finite and >= 0, got {value}")
        index = self._bucket_index(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        """Exact mean of the observed samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound on the ``q``-quantile of the observed samples.

        Returns 0.0 for an empty histogram.  The bound is exact to one
        bucket: ``true_quantile <= result <= true_quantile * growth``
        (and never above the observed maximum).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative >= rank:
                return min(self.bucket_upper_bound(index), self.max)
        return self.max  # pragma: no cover - rank <= count always hits

    def as_dict(self) -> dict:
        """JSON-ready snapshot; bucket list is sorted by index."""
        return {
            "growth": self.growth,
            "min_value": self.min_value,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": [[index, self._buckets[index]]
                        for index in sorted(self._buckets)],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        """Rebuild a histogram from :meth:`as_dict` output."""
        histogram = cls(growth=payload["growth"],
                        min_value=payload["min_value"])
        histogram._buckets = {int(index): int(count)
                              for index, count in payload["buckets"]}
        histogram.count = int(payload["count"])
        histogram.total = float(payload["total"])
        histogram.min = (float(payload["min"])
                         if payload.get("min") is not None else float("inf"))
        histogram.max = (float(payload["max"])
                         if payload.get("max") is not None
                         else float("-inf"))
        return histogram
