"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
from hypothesis import event, example, given, settings, strategies as st

from repro import api
from repro.core.packing import pack_by_dimension
from repro.data.spec import DatasetSpec, FieldSpec
from repro.core.caching import _batch_unique_hit_fraction
from repro.data.statistics import count_distinct, coverage_of_top_fraction
from repro.data.synthetic import BoundedZipf
from repro.models import MODEL_BUILDERS
from repro.embedding import EmbeddingTable, HybridHash, shard_for_id
from repro.nn.loss import bce_loss
from repro.nn.metrics import auc_score
from repro.nn.network import VARIANTS
from repro.replay import WAIT_MODELS
from repro.tuning import strategies as tuning_strategies
from repro.serving import CACHE_KINDS
from repro.sim import Engine, Phase, Resource, ResourceKind, SimTask

settings.register_profile("repro", deadline=None, max_examples=40)
settings.load_profile("repro")


# -- simulator invariants -----------------------------------------------------

@given(capacity=st.floats(0.1, 1e6),
       rates=st.lists(st.floats(0.01, 1e6), min_size=1, max_size=12))
def test_water_filling_never_exceeds_capacity(capacity, rates):
    resource = Resource(ResourceKind.NET, capacity=capacity)
    tasks = [SimTask(f"t{i}", [Phase(ResourceKind.NET, 1.0, max_rate=r)])
             for i, r in enumerate(rates)]
    resource.active.extend(tasks)
    allocation = resource.allocate_rates()
    assert sum(allocation.values()) <= capacity * (1 + 1e-9)
    for task, rate in allocation.items():
        assert rate <= task.current_phase.max_rate * (1 + 1e-9)


@given(works=st.lists(st.floats(0.1, 1e3), min_size=1, max_size=10))
def test_makespan_bounded_by_serial_and_parallel_time(works):
    capacity = 10.0
    resource = {ResourceKind.NET: Resource(ResourceKind.NET, capacity)}
    tasks = [SimTask(f"t{i}", [Phase(ResourceKind.NET, work)])
             for i, work in enumerate(works)]
    result = Engine(resource).run(tasks)
    total = sum(works)
    # Processor sharing: total throughput is exactly the capacity when
    # saturated, so makespan equals total/capacity for concurrent work.
    assert result.makespan >= total / capacity * (1 - 1e-9)
    assert result.makespan <= total / capacity * (1 + 1e-6) + 1e-9


@given(works=st.lists(st.floats(0.1, 100.0), min_size=2, max_size=8))
def test_chained_equals_sum(works):
    capacity = 5.0
    resource = {ResourceKind.NET: Resource(ResourceKind.NET, capacity)}
    tasks = [SimTask(f"t{i}", [Phase(ResourceKind.NET, work)])
             for i, work in enumerate(works)]
    for before, after in zip(tasks[:-1], tasks[1:]):
        after.depends_on(before)
    result = Engine(resource).run(tasks)
    assert math.isclose(result.makespan, sum(works) / capacity,
                        rel_tol=1e-6)


# -- data invariants ----------------------------------------------------------

@given(vocab=st.integers(1, 10_000_000),
       exponent=st.floats(0.5, 2.0),
       size=st.integers(0, 2000),
       seed=st.integers(0, 1000))
def test_zipf_ids_always_in_vocabulary(vocab, exponent, size, seed):
    zipf = BoundedZipf(vocab, exponent)
    ids = zipf.sample(size, np.random.default_rng(seed))
    assert ids.size == size
    if size:
        assert ids.min() >= 0
        assert ids.max() < vocab


@given(ids=st.lists(st.integers(-2**62, 2**62) | st.integers(0, 20),
                    max_size=300),
       rows=st.sampled_from((1, 2, 3)))
@example(ids=[], rows=1)
@example(ids=[7], rows=1)
@example(ids=[5] * 12, rows=3)
def test_count_distinct_equals_unique(ids, rows):
    array = np.array(ids, dtype=np.int64)
    if array.size % rows == 0:
        array = array.reshape(rows, -1)
    assert count_distinct(array) == len(np.unique(array))


@given(vocab=st.integers(1, 5_000),
       exponent=st.floats(0.5, 1.5),
       hot_rows=st.integers(0, 6_000),
       batch=st.integers(1, 3_000),
       seed=st.integers(0, 1000))
def test_batch_unique_hit_fraction_matches_unique(vocab, exponent,
                                                  hot_rows, batch, seed):
    # The hash-based count it replaced, kept as the reference.
    spec = FieldSpec(name="f", vocab_size=vocab, embedding_dim=8,
                     zipf_exponent=exponent)
    zipf = BoundedZipf(vocab, exponent)
    rng = np.random.default_rng(seed)
    uniques = hits = 0.0
    for _round in range(2):
        ranks = np.unique(zipf.sample(batch, rng))
        uniques += ranks.size
        hits += float(np.count_nonzero(ranks < hot_rows))
    expected = (uniques / 2, hits / 2)
    assert _batch_unique_hit_fraction(
        spec, hot_rows, batch, np.random.default_rng(seed)) == expected


@given(ids=st.lists(st.integers(0, 50), min_size=1, max_size=300),
       fraction=st.floats(0.01, 1.0))
def test_coverage_monotone_in_fraction(ids, fraction):
    array = np.array(ids)
    smaller = coverage_of_top_fraction(array, fraction / 2)
    larger = coverage_of_top_fraction(array, fraction)
    assert 0.0 <= smaller <= larger <= 1.0


@given(ids=st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=200),
       shards=st.integers(1, 64))
def test_sharding_total_and_stability(ids, shards):
    array = np.array(ids, dtype=np.int64)
    owners = shard_for_id(array, shards)
    assert owners.shape == array.shape
    assert owners.min() >= 0 and owners.max() < shards
    assert np.array_equal(owners, shard_for_id(array, shards))


# -- cache invariants ---------------------------------------------------------

@given(queries=st.lists(
    st.lists(st.integers(0, 200), min_size=1, max_size=30),
    min_size=1, max_size=15),
    hot_rows=st.integers(0, 100),
    warmup=st.integers(0, 5))
def test_hybrid_hash_transparent(queries, hot_rows, warmup):
    """Cache contents never change lookup results (Algorithm 1)."""
    cache = HybridHash(EmbeddingTable(dim=2, seed=9),
                       hot_bytes=hot_rows * 8, warmup_iters=warmup,
                       flush_iters=2)
    plain = EmbeddingTable(dim=2, seed=9)
    for ids in queries:
        array = np.array(ids)
        assert np.array_equal(cache.lookup(array), plain.lookup(array))
    assert 0.0 <= cache.stats.hit_ratio <= 1.0


# -- packing invariants -------------------------------------------------------

@given(dims=st.lists(st.sampled_from([4, 8, 16, 32, 64, 128]),
                     min_size=1, max_size=24),
       batch=st.integers(1, 4096))
def test_packing_conserves_fields_and_volume(dims, batch):
    dataset = DatasetSpec(name="d", fields=tuple(
        FieldSpec(name=f"f{i}", vocab_size=1000, embedding_dim=dim)
        for i, dim in enumerate(dims)))
    groups = pack_by_dimension(dataset, batch)
    # Every field appears with total shard weight 1.0.
    weights: dict = {}
    for group in groups:
        for spec in group.fields:
            weights[spec.name] = weights.get(spec.name, 0.0) \
                + group.shard_fraction
    assert set(weights) == {spec.name for spec in dataset.fields}
    for weight in weights.values():
        assert math.isclose(weight, 1.0, rel_tol=1e-9) or weight <= 1.0
    # Total processed IDs are conserved.
    total = sum(group.ids_per_batch(batch) for group in groups)
    assert math.isclose(total, batch * len(dims), rel_tol=1e-9)


# -- metric invariants --------------------------------------------------------

@given(labels=st.lists(st.integers(0, 1), min_size=2, max_size=200),
       seed=st.integers(0, 100))
def test_auc_complement_symmetry(labels, seed):
    array = np.array(labels, dtype=float)
    scores = np.random.default_rng(seed).standard_normal(array.size)
    auc = auc_score(array, scores)
    flipped = auc_score(array, -scores)
    if 0 < array.sum() < array.size:
        assert math.isclose(auc + flipped, 1.0, abs_tol=1e-9)
    else:
        assert auc == 0.5


@given(logits=st.lists(st.floats(-30, 30), min_size=1, max_size=100),
       seed=st.integers(0, 50))
def test_bce_nonnegative(logits, seed):
    array = np.array(logits)
    labels = (np.random.default_rng(seed).random(array.size)
              > 0.5).astype(float)
    assert bce_loss(array, labels) >= 0.0


# -- facade boundary ----------------------------------------------------------

#: Out-of-contract values per kind of config field.
_BAD_VALUES = {
    "count": [0, -1, 1.5, True, "7"],
    "size": [-1, 1.5, "7"],  # counts that may be 0
    "duration": [0.0, -1.0, float("nan"), float("inf")],
    "wait": [-1.0, float("nan"), float("inf")],  # may be 0
    "share": [1.0, -0.1, float("nan")],
    "choice": ["tape", None],
    "cluster": ["eflops:0", "gn6e:-3", "tpu:4"],
    # Non-finite rate shapes used to hang the arrival sampler.
    "shape": [{"kind": "diurnal", "period_s": float("nan")},
              {"kind": "diurnal", "period_s": 0.01,
               "phase_s": float("inf")},
              {"kind": "flash", "start_s": float("nan"),
               "duration_s": 0.01},
              {"kind": "flash", "start_s": 0.0,
               "duration_s": float("inf")},
              {"kind": "flash", "start_s": 0.0, "duration_s": 0.01,
               "multiplier": float("nan")}],
    "picasso": [{"micro_batches": 0}, {"interleave_sets": 0},
                {"micro_batch_scope": "tape"}, {"shard_policy": "tape"},
                {"hot_storage_bytes": float("nan")},
                {"device_memory_budget": float("inf")},
                {"prefetch_inflight_bytes": float("nan")},
                {"prefetch_hot_threshold": 1.5}, {"flush_iters": 0},
                {"prefetch_lookahead": 0}, {"prefetch_policy": "typo"}],
    # tune() searches PICASSO's knobs, so another framework is out too.
    "run": [{"batch_size": 0}, {"model": "BERT"}, {"cluster": "tpu:4"},
            {"framework": "TF-PS"}],
}
#: field -> (small in-contract strategy, kind of field).
_SERVING_FIELDS = {
    "requests": (st.integers(1, 200), "count"),
    "seed": (st.integers(0, 2**32), "size"),
    "rate_qps": (st.floats(1.0, 1e6), "duration"),
    "cache": (st.sampled_from(CACHE_KINDS), "choice"),
    "hot_rows": (st.integers(0, 5_000), "size"),
    "warm_rows": (st.integers(0, 50_000), "size"),
    "max_batch_size": (st.integers(1, 128), "count"),
    "max_wait_s": (st.floats(0.0, 0.01), "wait"),
    "slo_s": (st.floats(1e-6, 0.05), "duration"),
    "micro_batch_rows": (st.integers(1, 64), "count"),
    "variant": (st.sampled_from(VARIANTS), "choice"),
}
_SERVE_FIELDS = dict(_SERVING_FIELDS, replicas=(st.integers(1, 4), "count"))
_STREAM_FIELDS = dict(
    _SERVING_FIELDS,
    train_steps=(st.integers(1, 20), "count"),
    train_step_s=(st.floats(1e-5, 0.01), "duration"),
    train_batch_size=(st.integers(1, 64), "count"),
    publish_interval=(st.integers(1, 8), "count"),
    drift_ids_per_step=(st.floats(0.0, 32.0), "wait"),
    max_chain=(st.integers(1, 4), "count"),
    load_share=(st.floats(0.0, 0.99), "share"),
    autoscale=(st.booleans(), "choice"),
    min_replicas=(st.integers(1, 2), "count"),
    max_replicas=(st.integers(2, 4), "count"),
    hot_swaps=(st.booleans(), "choice"),
    shape=(st.none()
           | st.fixed_dictionaries({
               "kind": st.just("diurnal"),
               "period_s": st.floats(1e-3, 1.0),
               "amplitude": st.floats(0.0, 0.9),
               "phase_s": st.floats(-1.0, 1.0)})
           | st.fixed_dictionaries({
               "kind": st.just("flash"),
               "start_s": st.floats(0.0, 0.01),
               "duration_s": st.floats(1e-4, 0.01),
               "multiplier": st.floats(1.0, 5.0)}), "shape"),
)
#: Tiny workloads (a run takes at most ~50 ms) with a nested picasso.
_RUN_FIELDS = {
    "model": (st.sampled_from(sorted(MODEL_BUILDERS)), "choice"),
    "dataset": (st.sampled_from(["Criteo", "Alibaba"]), "choice"),
    "scale": (st.floats(1e-4, 1e-3), "duration"),
    "cluster": (st.sampled_from(["eflops:1", "eflops:2", "gn6e:1"]),
                "cluster"),
    "framework": (st.sampled_from(api.frameworks()), "choice"),
    "batch_size": (st.integers(1, 512), "count"),
    "iterations": (st.integers(1, 2), "count"),
    "picasso": (st.fixed_dictionaries({}, optional={
        "enable_packing": st.booleans(),
        "enable_interleaving": st.booleans(),
        "enable_caching": st.booleans(),
        "interleave_sets": st.none() | st.integers(1, 4),
        "micro_batches": st.none() | st.integers(1, 4),
        "micro_batch_scope": st.sampled_from(["all", "mlp"]),
        "hot_storage_bytes": st.floats(0.0, 2.0**31),
        "device_memory_budget": st.floats(1e9, 2.0**34),
        "shard_policy": st.sampled_from(["hash", "planned"]),
        "prefetch_lookahead": st.integers(1, 4),
        "prefetch_hot_threshold": st.floats(0.0, 1.0),
        "prefetch_inflight_bytes": st.floats(1.0, 2.0**30),
        "prefetch_policy": st.sampled_from(["hotness", "fifo"]),
    }), "picasso"),
}

#: A tiny DLRM baseline (a tune takes at most ~1.5 s) and the knobs of
#: the search itself.
_TUNE_FIELDS = {
    "run": (st.fixed_dictionaries({
        "model": st.just("DLRM"),
        "dataset": st.just("Criteo"),
        "scale": st.floats(1e-4, 1e-3),
        "cluster": st.just("eflops:2"),
        "batch_size": st.integers(1, 512),
        "iterations": st.integers(1, 2),
    }), "run"),
    "strategy": (st.sampled_from(tuning_strategies()), "choice"),
    "top_k": (st.integers(1, 3), "count"),
    "wait_model": (st.sampled_from(sorted(WAIT_MODELS)), "choice"),
    "shrink_credit": (st.floats(0.01, 1.0), "duration"),
    "diversity_cap": (st.integers(1, 3), "count"),
}


def _payloads(fields: dict, *sizes: str):
    """In-contract field subsets that always draw the run-size fields
    ``sizes`` (whose defaults are large), with at most one field
    swapped for an out-of-contract value."""
    strategies = {name: strategy
                  for name, (strategy, _kind) in fields.items()}
    valid = st.fixed_dictionaries(
        {name: strategies.pop(name) for name in sizes},
        optional=strategies)
    bad = st.sampled_from(sorted(fields)).flatmap(
        lambda name: st.tuples(
            st.just(name), st.sampled_from(_BAD_VALUES[fields[name][1]])))
    return st.tuples(valid, st.none() | bad).map(
        lambda drawn: dict(drawn[0], **dict([drawn[1]] if drawn[1] else [])))


def _assert_fails_at_boundary_or_finite(leg, payload, execute):
    """Either a ValueError names one of the drawn fields (nested ones
    included), or the run reports finite served/shed/p99."""
    names = set(payload).union(*(value for value in payload.values()
                                 if isinstance(value, dict)))
    try:
        values = execute(leg.from_dict(payload))
    except ValueError as error:
        assert any(name in str(error) for name in names), \
            f"{error!r} names none of {sorted(names)}"
        event("rejected")
        return
    event("ran")
    for value in values:
        assert math.isfinite(value)


def _serving_values(serving) -> tuple:
    return serving.served, serving.shed, serving.p99_ms


@settings(max_examples=25)
@given(payload=_payloads(_SERVE_FIELDS, "requests"))
def test_serve_config_fails_at_boundary_or_reports_finite(payload):
    _assert_fails_at_boundary_or_finite(
        api.ServeConfig, payload,
        lambda config: _serving_values(api.serve(config)))


@settings(max_examples=15)
@given(payload=_payloads(_STREAM_FIELDS, "requests", "train_steps"))
def test_stream_config_fails_at_boundary_or_reports_finite(payload):
    _assert_fails_at_boundary_or_finite(
        api.StreamConfig, payload,
        lambda config: _serving_values(api.stream(config).serving))


def _positive_ips(config) -> tuple:
    ips = api.run(config).ips
    assert ips > 0, ips
    return (ips,)


@settings(max_examples=30)
@given(payload=_payloads(_RUN_FIELDS, "dataset", "scale", "batch_size",
                         "iterations"))
def test_run_config_fails_at_boundary_or_reports_finite(payload):
    _assert_fails_at_boundary_or_finite(api.RunConfig, payload,
                                        _positive_ips)


def _positive_best_ips(config) -> tuple:
    best_ips = api.tune(config).best_ips
    assert best_ips > 0, best_ips
    return (best_ips,)


@settings(max_examples=25)
@given(payload=_payloads(_TUNE_FIELDS, "run"))
def test_tune_config_fails_at_boundary_or_reports_finite(payload):
    _assert_fails_at_boundary_or_finite(api.TuneConfig, payload,
                                        _positive_best_ips)
