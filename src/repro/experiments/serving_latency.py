"""Serving latency-throughput study (ROADMAP extension, not a paper
table): how cache hierarchy and batcher settings move online tail
latency.

Three cache configurations replay the *same* request trace, so any p99
difference is attributable to tier placement alone — the hierarchy is
strictly ordered by speed (all-HBM < HBM->DRAM < DRAM-only), which is
the load-bearing claim behind extending Algorithm 1's cache to
serving.  A second sweep varies the dynamic batcher's size/deadline to
trace the latency-throughput trade-off.
"""

from __future__ import annotations

from repro.api import ServeConfig, serve
from repro.experiments.common import Check

#: (label, cache kind) rows for the tier sweep, fastest first.
CACHE_CONFIGS = (
    ("all-HBM", "hbm"),
    ("HBM->DRAM", "hbm-dram"),
    ("HBM->DRAM->SSD", "hbm-dram-ssd"),
    ("DRAM-only", "dram"),
)

#: (max_batch_size, max_wait_ms) points for the batcher sweep.
BATCHER_CONFIGS = ((16, 0.5), (64, 2.0), (256, 8.0))


def run_cache_sweep(num_requests: int = 4_000, seed: int = 0,
                    rate_qps: float = 60_000.0) -> list:
    """p50/p95/p99 across cache hierarchies on one trace."""
    base = ServeConfig(requests=num_requests, seed=seed,
                       rate_qps=rate_qps, max_wait_s=0.001)
    rows = []
    for label, kind in CACHE_CONFIGS:
        report = serve(base.with_overrides(cache=kind))
        rows.append({"cache": label, **report.row()})
    return rows


def run_batcher_sweep(num_requests: int = 4_000, seed: int = 0,
                      rate_qps: float = 60_000.0) -> list:
    """Latency-throughput trade-off across batcher settings."""
    base = ServeConfig(requests=num_requests, seed=seed,
                       rate_qps=rate_qps)
    rows = []
    for max_batch, wait_ms in BATCHER_CONFIGS:
        report = serve(base.with_overrides(
            max_batch_size=max_batch, max_wait_s=wait_ms / 1e3))
        rows.append({"batch_max": max_batch, "wait_ms": wait_ms,
                     **report.row()})
    return rows


def run_serving_latency(num_requests: int = 4_000, seed: int = 0) -> list:
    """Both sweeps concatenated; the ``experiment`` CLI entry point."""
    cache_rows = [{"sweep": "cache", **row}
                  for row in run_cache_sweep(num_requests, seed)]
    batch_rows = [{"sweep": "batcher", **row}
                  for row in run_batcher_sweep(num_requests, seed)]
    # Uniform columns so format_table renders one coherent table.
    columns = ["sweep", "cache", "batch_max", "wait_ms"]
    merged = []
    for row in cache_rows + batch_rows:
        merged.append({column: row.get(column, "-")
                       for column in columns}
                      | {key: value for key, value in row.items()
                         if key not in columns})
    return merged


def paper_reference() -> str:
    """This study extends the paper; no published numbers exist."""
    return ("Extension study: the paper stops at training. Expected "
            "shape: p99 strictly ordered all-HBM < HBM->DRAM < "
            "DRAM-only on the same trace; larger batches raise "
            "latency but launch overhead per request falls.")


def claims(rows: list) -> list:
    """The study's claims, checked on :func:`run_serving_latency` rows."""
    cache = [row for row in rows if row["sweep"] == "cache"]
    batcher = [row for row in rows if row["sweep"] == "batcher"]
    p99 = {row["cache"]: float(row["p99_ms"]) for row in cache}
    p50 = [float(row["p50_ms"]) for row in batcher]
    return [
        # Same trace, same batcher, same SLO: only storage placement
        # differs, and p99 follows it.
        Check("p99 is strictly ordered by tier speed: all-HBM < "
              "HBM->DRAM < DRAM-only",
              p99["all-HBM"] < p99["HBM->DRAM"] < p99["DRAM-only"]),
        Check("nothing sheds in the three DRAM-or-faster configs",
              all(row["shed"] == 0 for row in cache
                  if row["cache"] != "HBM->DRAM->SSD")),
        Check("larger batch/deadline settings accumulate longer: p50 "
              "rises with the batcher setting", p50 == sorted(p50)),
        # So the trade is purely batching delay vs per-request launch
        # overhead.
        Check("every batcher setting keeps up with the offered load (no "
              "shedding)",
              all(row["shed_rate"] == "0.00%" for row in batcher)),
    ]
