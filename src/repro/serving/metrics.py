"""Serving-side metrics: latency percentiles, QPS, shed rate, cache.

Mirrors :mod:`repro.sim.metrics`: raw events (per-request completions)
are reduced onto fixed-width buckets for timelines, and headline
numbers come out as plain dict rows ready for
``repro.experiments.common.format_table``.  Everything is a pure
function of the recorded events, so a deterministic simulation yields
bit-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.telemetry.timeseries import Histogram

#: Same default sampling grid as the training-side utilization plots.
DEFAULT_BUCKET_SECONDS = 0.010


def _percentiles_ms(hist: Histogram):
    """(p50, p95, p99) in ms from a latency histogram (ms values)."""
    if hist.count == 0:
        return 0.0, 0.0, 0.0
    return (hist.quantile(0.50), hist.quantile(0.95), hist.quantile(0.99))


@dataclass(frozen=True)
class ServingReport:
    """Headline metrics of one serving run.

    ``latency_hist`` carries the full latency distribution (ms) as a
    log-bucket histogram; the ``p*_ms`` fields are its quantiles.
    """

    served: int
    shed: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    qps: float
    shed_rate: float
    cache_hit_ratio: float
    makespan_s: float
    stage_seconds: dict
    latency_hist: Histogram = field(default_factory=Histogram,
                                    compare=False, repr=False)
    #: Degraded-mode summary (replica loss accounting) when the run
    #: went through a fault-aware controller; ``None`` otherwise.
    degraded: dict | None = field(default=None, compare=False)

    def as_dict(self) -> dict:
        """Plain-dict export (benchmarks, JSON)."""
        payload = {
            "served": self.served,
            "shed": self.shed,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "qps": self.qps,
            "shed_rate": self.shed_rate,
            "cache_hit_ratio": self.cache_hit_ratio,
            "makespan_s": self.makespan_s,
            "stage_seconds": dict(self.stage_seconds),
        }
        if self.degraded is not None:
            payload["degraded"] = dict(self.degraded)
        return payload

    def row(self) -> dict:
        """One formatted table row (for ``format_table``)."""
        return {
            "served": self.served,
            "shed": self.shed,
            "p50_ms": f"{self.p50_ms:.3f}",
            "p95_ms": f"{self.p95_ms:.3f}",
            "p99_ms": f"{self.p99_ms:.3f}",
            "qps": f"{self.qps:,.0f}",
            "shed_rate": f"{self.shed_rate:.2%}",
            "cache_hit": f"{self.cache_hit_ratio:.2%}",
        }


class ServingMetrics:
    """Accumulates per-request outcomes during a serving run."""

    def __init__(self):
        self._latencies: list = []
        self._completions: list = []
        self._shed = 0
        self._shed_times: list = []
        self._first_arrival = None
        self._last_event = 0.0
        self._stage_seconds: dict = {}

    def observe_arrival(self, arrival_s: float) -> None:
        """Track the trace's start for QPS accounting."""
        if self._first_arrival is None or arrival_s < self._first_arrival:
            self._first_arrival = arrival_s

    def record_served(self, arrival_s: float, completion_s: float) -> None:
        """One request finished; latency is completion - arrival."""
        self.observe_arrival(arrival_s)
        self._latencies.append(completion_s - arrival_s)
        self._completions.append(completion_s)
        self._last_event = max(self._last_event, completion_s)

    def record_shed(self, arrival_s: float, shed_s: float) -> None:
        """One request dropped by admission control."""
        self.observe_arrival(arrival_s)
        self._shed += 1
        self._shed_times.append(shed_s)
        self._last_event = max(self._last_event, shed_s)

    def completed_requests(self) -> list:
        """``(completion_s, latency_s)`` pairs, in completion order.

        The raw feed of the SLO burn-rate monitor.
        """
        return list(zip(self._completions, self._latencies))

    def shed_times(self) -> list:
        """Times at which requests were dropped by admission control."""
        return list(self._shed_times)

    def record_stage(self, stage: str, seconds: float) -> None:
        """Accumulate modeled time in a named pipeline stage."""
        self._stage_seconds[stage] = \
            self._stage_seconds.get(stage, 0.0) + seconds

    def latency_histogram(self) -> Histogram:
        """The latency distribution (in ms) as a log-bucket histogram."""
        return Histogram.from_values(
            latency * 1e3 for latency in self._latencies)

    def report(self, cache_hit_ratio: float = 0.0) -> ServingReport:
        """Reduce the recorded events to a :class:`ServingReport`."""
        served = len(self._latencies)
        total = served + self._shed
        start = self._first_arrival or 0.0
        makespan = max(0.0, self._last_event - start)
        hist = self.latency_histogram()
        p50, p95, p99 = _percentiles_ms(hist)
        return ServingReport(
            served=served,
            shed=self._shed,
            p50_ms=p50,
            p95_ms=p95,
            p99_ms=p99,
            qps=served / makespan if makespan > 0 else 0.0,
            shed_rate=self._shed / total if total else 0.0,
            cache_hit_ratio=cache_hit_ratio,
            makespan_s=makespan,
            stage_seconds=dict(self._stage_seconds),
            latency_hist=hist,
        )

    def qps_timeline(self, bucket: float = DEFAULT_BUCKET_SECONDS):
        """Completions per second on a fixed grid (``(times, qps)``).

        The serving twin of ``repro.sim.metrics.bandwidth_timeline``:
        bucketed completion counts over the run's makespan.
        """
        if bucket <= 0:
            raise ValueError(f"bucket must be > 0, got {bucket}")
        completions = np.asarray(self._completions, dtype=np.float64)
        if completions.size == 0:
            return np.zeros(0), np.zeros(0)
        start = self._first_arrival or 0.0
        offsets = completions - start
        num_buckets = max(1, int(np.ceil(offsets.max() / bucket)) or 1)
        counts = np.bincount(
            np.minimum(num_buckets - 1,
                       (offsets // bucket).astype(np.int64)),
            minlength=num_buckets)
        times = np.arange(num_buckets) * bucket
        return times, counts / bucket
