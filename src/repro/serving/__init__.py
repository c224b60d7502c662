"""Online inference serving: the train->serve loop closed.

PICASSO's machinery was built for training, but its three pillars map
one-to-one onto online serving: Algorithm 1's frequency-managed caches
become the embedding store behind a latency SLO, D-Interleaving's
micro-batch slicing becomes the dynamic request batcher, and the
hardware model prices every fetch by the tier it lands in.  This
package simulates that serving path end to end — Poisson/Zipf traffic,
size-or-deadline batching, SLO admission control, and a model server
whose latency model is driven by :mod:`repro.hardware` — with every
metric a deterministic function of one seed.
"""

from repro.serving.batcher import ClosedBatch, MicroBatcher, \
    plan_micro_batches
from repro.serving.metrics import ServingMetrics, ServingReport
from repro.serving.server import (
    CACHE_KINDS,
    ModelServer,
    build_serving_stack,
    build_tiers,
    default_serving_dataset,
    serve_trace,
    simulate_serving,
)
from repro.serving.slo import SloConfig, SloPolicy
from repro.serving.traffic import (
    DiurnalShape,
    FlashCrowdShape,
    RateShape,
    Request,
    TrafficGenerator,
    shape_from_dict,
)

__all__ = [
    "CACHE_KINDS",
    "ClosedBatch",
    "DiurnalShape",
    "FlashCrowdShape",
    "MicroBatcher",
    "ModelServer",
    "RateShape",
    "Request",
    "ServingMetrics",
    "ServingReport",
    "SloConfig",
    "SloPolicy",
    "TrafficGenerator",
    "build_serving_stack",
    "build_tiers",
    "default_serving_dataset",
    "plan_micro_batches",
    "serve_trace",
    "shape_from_dict",
    "simulate_serving",
]
