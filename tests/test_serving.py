"""Tests for the online serving subsystem (repro.serving)."""

import numpy as np
import pytest

from repro.api import ServeConfig
from repro.cli import main
from repro.serving import (
    MicroBatcher,
    ModelServer,
    Request,
    ServingMetrics,
    SloConfig,
    SloPolicy,
    TrafficGenerator,
    build_tiers,
    default_serving_dataset,
    plan_micro_batches,
    simulate_serving,
)
from repro.serving.batcher import MAX_MICRO_BATCHES
from repro.serving.traffic import (
    DiurnalShape,
    FlashCrowdShape,
    shape_from_dict,
)


def _request(request_id, arrival_s):
    return Request(request_id=request_id, arrival_s=arrival_s,
                   sparse={"f": np.array([request_id], dtype=np.int64)},
                   numeric=np.zeros(0, dtype=np.float32))


class TestTraffic:
    def test_poisson_arrivals_sorted_and_rate(self):
        generator = TrafficGenerator(default_serving_dataset(),
                                     rate_qps=1_000.0, seed=0)
        requests = generator.generate(2_000)
        arrivals = [request.arrival_s for request in requests]
        assert arrivals == sorted(arrivals)
        mean_gap = arrivals[-1] / len(arrivals)
        assert mean_gap == pytest.approx(1e-3, rel=0.1)

    def test_deterministic_across_generators(self):
        first = TrafficGenerator(default_serving_dataset(), 500.0,
                                 seed=3).generate(50)
        second = TrafficGenerator(default_serving_dataset(), 500.0,
                                  seed=3).generate(50)
        for a, b in zip(first, second):
            assert a.arrival_s == b.arrival_s
            for name in a.sparse:
                assert np.array_equal(a.sparse[name], b.sparse[name])
            assert np.array_equal(a.numeric, b.numeric)

    def test_request_schema_matches_dataset(self):
        dataset = default_serving_dataset(fields=3)
        request = TrafficGenerator(dataset, 100.0).generate(1)[0]
        assert set(request.sparse) == {spec.name
                                       for spec in dataset.fields}
        assert request.numeric.shape == (dataset.num_numeric,)

    def test_zipf_skew_present(self):
        dataset = default_serving_dataset(fields=1, vocab=10_000)
        requests = TrafficGenerator(dataset, 100.0, seed=0).generate(2_000)
        ids = np.concatenate(
            [request.sparse["cat_0"] for request in requests])
        _values, counts = np.unique(ids, return_counts=True)
        # Hot head: the most frequent ID covers far more than uniform.
        assert counts.max() > 10 * (ids.size / 10_000)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficGenerator(default_serving_dataset(), rate_qps=0.0)
        with pytest.raises(ValueError):
            TrafficGenerator(default_serving_dataset(),
                             rate_qps=1.0).generate(-1)


def _empirical_rate(arrivals, start, end):
    inside = [value for value in arrivals if start <= value < end]
    return len(inside) / (end - start)


class TestRateShapes:
    def test_diurnal_factor_and_peak(self):
        shape = DiurnalShape(period_s=4.0, amplitude=0.5)
        assert shape.factor(0.0) == pytest.approx(1.0)
        assert shape.factor(1.0) == pytest.approx(1.5)  # quarter cycle
        assert shape.factor(3.0) == pytest.approx(0.5)
        assert shape.peak_factor == pytest.approx(1.5)

    def test_flash_factor_window(self):
        shape = FlashCrowdShape(start_s=1.0, duration_s=0.5,
                                multiplier=4.0)
        assert shape.factor(0.99) == 1.0
        assert shape.factor(1.0) == 4.0
        assert shape.factor(1.49) == 4.0
        assert shape.factor(1.5) == 1.0
        assert shape.peak_factor == 4.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DiurnalShape(period_s=0.0)
        with pytest.raises(ValueError):
            DiurnalShape(period_s=1.0, amplitude=1.0)
        with pytest.raises(ValueError):
            FlashCrowdShape(start_s=-1.0, duration_s=1.0)
        with pytest.raises(ValueError):
            FlashCrowdShape(start_s=0.0, duration_s=0.0)
        with pytest.raises(ValueError):
            FlashCrowdShape(start_s=0.0, duration_s=1.0,
                            multiplier=0.5)

    @pytest.mark.parametrize("shape, settings, name", [
        (DiurnalShape, {"period_s": float("nan")}, "period_s"),
        (DiurnalShape, {"period_s": float("inf")}, "period_s"),
        (DiurnalShape, {"period_s": 1.0, "amplitude": float("nan")},
         "amplitude"),
        (DiurnalShape, {"period_s": 1.0, "phase_s": float("inf")},
         "phase_s"),
        (DiurnalShape, {"period_s": 1.0, "phase_s": float("nan")},
         "phase_s"),
        (FlashCrowdShape, {"start_s": float("nan"), "duration_s": 1.0},
         "start_s"),
        (FlashCrowdShape, {"start_s": 0.0, "duration_s": float("inf")},
         "duration_s"),
        (FlashCrowdShape, {"start_s": 0.0, "duration_s": 1.0,
                           "multiplier": float("nan")}, "multiplier"),
        (FlashCrowdShape, {"start_s": 0.0, "duration_s": 1.0,
                           "multiplier": float("inf")}, "multiplier"),
    ])
    def test_non_finite_shape_rejected(self, shape, settings, name):
        # A NaN peak used to make the thinning sampler reject every
        # candidate arrival, hanging the run.
        with pytest.raises(ValueError, match=name):
            shape(**settings)

    def test_shape_round_trip(self):
        for shape in (DiurnalShape(period_s=2.0, amplitude=0.3,
                                   phase_s=0.5),
                      FlashCrowdShape(start_s=1.0, duration_s=0.5,
                                      multiplier=3.0)):
            assert shape_from_dict(shape.as_dict()) == shape
        assert shape_from_dict(None) is None
        with pytest.raises(ValueError):
            shape_from_dict({"kind": "square-wave"})

    def test_flash_crowd_tracks_target_rate(self):
        """Thinning reproduces the step: ~4x the arrivals in-window."""
        shape = FlashCrowdShape(start_s=1.0, duration_s=1.0,
                                multiplier=4.0)
        generator = TrafficGenerator(default_serving_dataset(),
                                     rate_qps=1_000.0, seed=0,
                                     shape=shape)
        arrivals = [request.arrival_s
                    for request in generator.generate(6_000)]
        assert arrivals == sorted(arrivals)
        base = _empirical_rate(arrivals, 0.0, 1.0)
        spike = _empirical_rate(arrivals, 1.0, 2.0)
        assert base == pytest.approx(1_000.0, rel=0.10)
        assert spike == pytest.approx(4_000.0, rel=0.10)
        assert spike > 3.0 * base

    def test_diurnal_tracks_target_rate(self):
        """Peak and trough half-cycles carry their analytic mass."""
        shape = DiurnalShape(period_s=2.0, amplitude=0.8)
        generator = TrafficGenerator(default_serving_dataset(),
                                     rate_qps=1_000.0, seed=1,
                                     shape=shape)
        arrivals = [request.arrival_s
                    for request in generator.generate(4_000)]
        # Mean factor over a half cycle is 1 +- amplitude * 2/pi.
        swing = 0.8 * 2.0 / np.pi
        peak = _empirical_rate(arrivals, 0.0, 1.0)
        trough = _empirical_rate(arrivals, 1.0, 2.0)
        assert peak == pytest.approx(1_000.0 * (1 + swing), rel=0.10)
        assert trough == pytest.approx(1_000.0 * (1 - swing), rel=0.15)

    def test_shaped_stream_is_deterministic(self):
        shape = DiurnalShape(period_s=1.0, amplitude=0.5)
        first = TrafficGenerator(default_serving_dataset(), 500.0,
                                 seed=3, shape=shape).generate(100)
        second = TrafficGenerator(default_serving_dataset(), 500.0,
                                  seed=3, shape=shape).generate(100)
        assert [a.arrival_s for a in first] \
            == [b.arrival_s for b in second]

    def test_rate_at_reports_shaped_rate(self):
        shape = FlashCrowdShape(start_s=1.0, duration_s=1.0,
                                multiplier=2.0)
        generator = TrafficGenerator(default_serving_dataset(),
                                     rate_qps=100.0, shape=shape)
        assert generator.rate_at(0.5) == pytest.approx(100.0)
        assert generator.rate_at(1.5) == pytest.approx(200.0)
        unshaped = TrafficGenerator(default_serving_dataset(), 100.0)
        assert unshaped.rate_at(123.0) == pytest.approx(100.0)


class TestBatcher:
    def test_coalesces_up_to_max_size(self):
        batcher = MicroBatcher(max_batch_size=4, max_wait_s=10.0)
        requests = [_request(index, 0.001 * index) for index in range(10)]
        batches = batcher.form_batches(requests)
        assert [batch.size for batch in batches] == [4, 4, 2]
        # A size-sealed batch closes when its filling request arrives.
        assert batches[0].close_s == requests[3].arrival_s

    def test_deadline_seals_partial_batch(self):
        batcher = MicroBatcher(max_batch_size=100, max_wait_s=0.005)
        requests = [_request(0, 0.0), _request(1, 0.001),
                    _request(2, 0.050)]
        batches = batcher.form_batches(requests)
        assert [batch.size for batch in batches] == [2, 1]
        assert batches[0].close_s == pytest.approx(0.005)
        assert batches[1].close_s == pytest.approx(0.055)

    def test_sparse_arrivals_one_per_batch(self):
        batcher = MicroBatcher(max_batch_size=8, max_wait_s=0.001)
        requests = [_request(index, float(index)) for index in range(3)]
        batches = batcher.form_batches(requests)
        assert [batch.size for batch in batches] == [1, 1, 1]

    def test_every_request_in_exactly_one_batch(self):
        batcher = MicroBatcher(max_batch_size=3, max_wait_s=0.002)
        rng = np.random.default_rng(0)
        arrivals = np.cumsum(rng.exponential(0.001, size=50))
        requests = [_request(index, float(arrival))
                    for index, arrival in enumerate(arrivals)]
        batches = batcher.form_batches(requests)
        seen = [request.request_id for batch in batches
                for request in batch.requests]
        assert sorted(seen) == list(range(50))

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch_size=0, max_wait_s=1.0)
        with pytest.raises(ValueError):
            MicroBatcher(max_batch_size=1, max_wait_s=-1.0)


class TestMicroBatchPlan:
    def test_small_batch_single_slice(self):
        assert plan_micro_batches(8, 16) == 1

    def test_slices_scale_with_rows(self):
        assert plan_micro_batches(64, 16) == 4

    def test_clamped_like_training_side(self):
        assert plan_micro_batches(10_000, 1) == MAX_MICRO_BATCHES

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_micro_batches(-1, 4)
        with pytest.raises(ValueError):
            plan_micro_batches(4, 0)


class TestSloPolicy:
    def test_everything_admitted_under_budget(self):
        policy = SloPolicy(SloConfig(latency_budget_s=1.0))
        batcher = MicroBatcher(2, 0.001)
        batch = batcher.form_batches(
            [_request(0, 0.0), _request(1, 0.0)])[0]
        admitted, shed = policy.admit(batch, start_s=0.001,
                                      service_estimate_s=0.01)
        assert len(admitted) == 2 and not shed

    def test_stale_requests_shed(self):
        policy = SloPolicy(SloConfig(latency_budget_s=0.010))
        batcher = MicroBatcher(2, 0.010)
        # Request 0 is already 9 ms old at service start; request 1 is
        # fresh.  A 5 ms service puts only request 0 past its budget.
        batch = batcher.form_batches(
            [_request(0, 0.0), _request(1, 0.008)])[0]
        assert batch.size == 2
        admitted, shed = policy.admit(batch, start_s=0.009,
                                      service_estimate_s=0.005)
        assert [request.request_id for request in shed] == [0]
        assert [request.request_id for request in admitted] == [1]

    def test_hopeless_queue_shed_wholesale(self):
        policy = SloPolicy(SloConfig(latency_budget_s=10.0,
                                     max_queue_delay_s=0.001))
        batch = MicroBatcher(2, 0.0).form_batches([_request(0, 0.0)])[0]
        admitted, shed = policy.admit(batch, start_s=1.0,
                                      service_estimate_s=0.0)
        assert not admitted and len(shed) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SloConfig(latency_budget_s=0.0)
        with pytest.raises(ValueError):
            SloConfig(latency_budget_s=1.0, max_queue_delay_s=-1.0)


class TestMetrics:
    def test_percentiles_and_qps(self):
        metrics = ServingMetrics()
        for index in range(100):
            metrics.record_served(arrival_s=float(index),
                                  completion_s=float(index) + 0.010)
        report = metrics.report(cache_hit_ratio=0.5)
        assert report.p50_ms == pytest.approx(10.0)
        assert report.p99_ms == pytest.approx(10.0)
        assert report.served == 100
        assert report.qps == pytest.approx(100 / 99.01)
        assert report.cache_hit_ratio == 0.5

    def test_shed_rate(self):
        metrics = ServingMetrics()
        metrics.record_served(0.0, 0.01)
        metrics.record_shed(0.0, 0.01)
        metrics.record_shed(0.0, 0.02)
        assert metrics.report().shed_rate == pytest.approx(2 / 3)

    def test_empty_report(self):
        report = ServingMetrics().report()
        assert report.served == 0 and report.qps == 0.0
        assert report.p99_ms == 0.0

    def test_qps_timeline(self):
        metrics = ServingMetrics()
        for index in range(10):
            metrics.record_served(0.0, 0.001 * (index + 1))
        times, qps = metrics.qps_timeline(bucket=0.010)
        assert times.shape == qps.shape
        assert qps[0] == pytest.approx(10 / 0.010)

    def test_as_dict_round_trip(self):
        metrics = ServingMetrics()
        metrics.record_served(0.0, 0.005)
        metrics.record_stage("lookup", 0.001)
        payload = metrics.report().as_dict()
        assert payload["served"] == 1
        assert payload["stage_seconds"]["lookup"] == pytest.approx(0.001)


class TestModelServer:
    def test_tier_latency_ordering_end_to_end(self):
        # Fast warmup/flush so placement is live within the short
        # trace; all three hierarchies replay the same requests.
        reports = {
            kind: simulate_serving(
                ServeConfig(requests=800, seed=0, cache=kind,
                            rate_qps=60_000, max_wait_s=0.001),
                warmup_iters=2, flush_iters=3)
            for kind in ("hbm", "hbm-dram", "dram")
        }
        assert reports["hbm"].p99_ms < reports["hbm-dram"].p99_ms \
            < reports["dram"].p99_ms

    def test_deterministic_given_seed(self):
        first = simulate_serving(ServeConfig(requests=500, seed=7))
        second = simulate_serving(ServeConfig(requests=500, seed=7))
        assert first.as_dict() == second.as_dict()

    def test_different_seeds_differ(self):
        first = simulate_serving(ServeConfig(requests=500, seed=0))
        second = simulate_serving(ServeConfig(requests=500, seed=1))
        assert first.as_dict() != second.as_dict()

    def test_overload_sheds_but_meets_slo(self):
        report = simulate_serving(ServeConfig(
            requests=1_000, seed=0, cache="dram", rate_qps=300_000,
            slo_s=0.004, max_wait_s=0.0005))
        assert report.shed > 0
        assert 0.0 < report.shed_rate < 1.0
        # Served requests still meet the deadline they were admitted
        # under (estimates are exact in the deterministic model).
        assert report.p99_ms <= 4.0 + 1e-6

    def test_generous_slo_sheds_nothing(self):
        report = simulate_serving(ServeConfig(requests=500, seed=0,
                                              slo_s=10.0))
        assert report.shed == 0
        assert report.served == 500

    def test_hybrid_hash_cache_supported(self):
        report = simulate_serving(ServeConfig(requests=400, seed=0,
                                              cache="hybrid"))
        assert report.served + report.shed == 400
        assert 0.0 <= report.cache_hit_ratio <= 1.0

    def test_micro_batching_amortizes_launches(self):
        # One slice per request (budget 1) pays launch overhead per
        # request; a whole-batch slice amortizes it.
        sliced = simulate_serving(ServeConfig(requests=400, seed=0,
                                              micro_batch_rows=1))
        whole = simulate_serving(ServeConfig(requests=400, seed=0,
                                             micro_batch_rows=10_000))
        assert whole.stage_seconds["dense"] \
            < sliced.stage_seconds["dense"]

    def test_scores_are_probabilities(self):
        dataset = default_serving_dataset(fields=2, vocab=1_000)
        from repro.embedding import EmbeddingTable, MultiLevelCache
        from repro.hardware import GN6E_NODE
        from repro.nn.network import WdlNetwork

        network = WdlNetwork(dataset, variant="wdl", seed=0)
        cache = MultiLevelCache(
            EmbeddingTable(dim=network.embedding_dim, seed=0),
            tiers=build_tiers("hbm-dram", GN6E_NODE,
                              network.embedding_dim * 4, 100, 1_000),
            warmup_iters=1, flush_iters=2)
        server = ModelServer(network, cache)
        requests = TrafficGenerator(dataset, 1_000.0,
                                    seed=0).generate(16)
        outcome = server.process(requests)
        assert outcome.scores.shape == (16,)
        assert np.all((outcome.scores >= 0) & (outcome.scores <= 1))
        assert outcome.service_s > 0

    def test_rejects_unknown_cache_kind(self):
        with pytest.raises(ValueError):
            simulate_serving(ServeConfig(requests=10, cache="l2"))

    def test_build_tiers_ordering(self):
        from repro.hardware import GN6E_NODE
        tiers = build_tiers("hbm-dram-ssd", GN6E_NODE, 64, 100, 1_000)
        names = [tier.name for tier in tiers]
        assert names == ["hbm", "dram", "ssd"]
        latencies = [tier.access_latency for tier in tiers]
        assert latencies == sorted(latencies)
        assert tiers[-1].capacity_bytes == float("inf")


class TestServeObservers:
    def test_traced_serve_has_one_span_per_batch_and_shed(self):
        from repro.api import serve
        from repro.telemetry import Tracer

        tracer = Tracer()
        report = serve(ServeConfig(requests=1_000, cache="dram",
                                   rate_qps=300_000, slo_s=0.004,
                                   max_wait_s=0.0005),
                       tracer=tracer)
        assert report.served > 0 and report.shed > 0
        batches = [span for span in tracer.spans if span.track == "server"]
        # One span per admitted batch: distinct, non-empty, and their
        # sizes account for every served request exactly once.
        assert len({span.name for span in batches}) == len(batches)
        assert min(span.attrs["size"] for span in batches) >= 1
        assert sum(span.attrs["size"] for span in batches) == report.served
        waits = [span for span in tracer.spans if span.track == "batcher"]
        assert len(waits) == len(batches)
        sheds = [event for event in tracer.instants if event[1] == "shed"]
        assert len(sheds) == report.shed


class TestServeCli:
    def test_serve_command_prints_metrics(self, capsys):
        code = main(["serve", "--requests", "300", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        for token in ("p50_ms", "p95_ms", "p99_ms", "qps", "shed_rate",
                      "cache_hit", "stage breakdown"):
            assert token in out

    def test_serve_command_deterministic(self, capsys):
        main(["serve", "--requests", "300", "--seed", "4"])
        first = capsys.readouterr().out
        main(["serve", "--requests", "300", "--seed", "4"])
        assert capsys.readouterr().out == first

    def test_serve_cache_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["serve", "--cache", "tape"])


class TestExperimentRegistration:
    def test_registered_in_runner(self):
        from repro.experiments import runner
        titles = [title for title, _run, _claims in runner.EXPERIMENTS]
        assert any("Serving" in title for title in titles)

    def test_experiment_cli_invokes_sweep(self, capsys):
        code = main(["experiment", "serving"])
        assert code == 0
        out = capsys.readouterr().out
        assert "all-HBM" in out
        assert "p99_ms" in out
