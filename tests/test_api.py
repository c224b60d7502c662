"""Tests for the RunConfig/run facade and the headline-number exports."""

import numpy as np
import pytest

from repro import api
from repro.api import (
    ProfileResult,
    RunConfig,
    ServeConfig,
    StreamConfig,
    TuneConfig,
)
from repro.core.config import PicassoConfig
from repro.faults import FaultEvent, FaultPlan
from repro.embedding.hybrid_hash import CacheStats
from repro.embedding.multilevel import TierStats
from repro.hardware import eflops_cluster
from repro.prefetch import PrefetchConfig
from repro.serving.metrics import ServingReport
from repro.sim.engine import SimSummary
from repro.telemetry import validate_chrome_trace
from repro.training.trainer import TrainResult

TINY = RunConfig(model="DLRM", dataset="Criteo", scale=0.001,
                 cluster="eflops:2", batch_size=512, iterations=1)


class TestParseCluster:
    def test_named_specs(self):
        cluster = api.parse_cluster("eflops:4")
        assert cluster.num_nodes == 4
        assert api.parse_cluster("gn6e:1").num_nodes == 1

    def test_default_node_count(self):
        assert api.parse_cluster("eflops").num_nodes == 1

    def test_built_cluster_passes_through(self):
        built = eflops_cluster(2)
        assert api.parse_cluster(built) is built

    def test_unknown_testbed_rejected(self):
        with pytest.raises(ValueError):
            api.parse_cluster("tpu:4")

    @pytest.mark.parametrize("spec", ["eflops:0", "gn6e:-3",
                                      "eflops:2.5", "gn6e:two"])
    def test_bad_node_count_rejected(self, spec):
        with pytest.raises(ValueError, match="cluster"):
            api.parse_cluster(spec)

    def test_bad_node_count_fails_the_run(self):
        # Used to simulate a zero-node cluster and report a throughput.
        with pytest.raises(ValueError, match="cluster"):
            api.run(TINY.with_overrides(cluster="eflops:0"))

    def test_bad_node_count_is_a_cli_usage_error(self):
        from repro.cli import build_parser
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--cluster", "gn6e:-3"])


class TestRunConfig:
    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_scale_rejected(self, scale):
        # Used to pass the ``<= 0`` check and die deep in the model build.
        with pytest.raises(ValueError, match="scale"):
            RunConfig(scale=scale)
        with pytest.raises(ValueError, match="scale"):
            TINY.with_overrides(scale=scale)

    def test_float_batch_size_rejected(self):
        # Used to pass validation and die in numpy with a TypeError.
        with pytest.raises(ValueError, match="batch_size"):
            RunConfig(batch_size=1.5)

    def test_string_batch_size_rejected_from_dict(self):
        # Used to raise TypeError: '<' not supported for str and int.
        with pytest.raises(ValueError, match="batch_size"):
            RunConfig.from_dict({"batch_size": "7"})

    def test_float_iterations_rejected(self):
        with pytest.raises(ValueError, match="iterations"):
            RunConfig(iterations=2.5)

    def test_bool_batch_size_rejected(self):
        # bool subclasses int, so a plain isinstance check lets it in.
        with pytest.raises(ValueError, match="batch_size"):
            RunConfig(batch_size=True)

    def test_more_micro_batches_than_samples_rejected(self):
        # Used to run and report 0.54 ips.
        with pytest.raises(ValueError, match="micro_batches"):
            RunConfig(batch_size=2_000,
                      picasso=PicassoConfig(micro_batches=5_000))

    @pytest.mark.parametrize("leg, name", [
        (PrefetchConfig, "max_inflight_bytes"),
        (PicassoConfig, "hot_storage_bytes"),
        (PicassoConfig, "device_memory_budget"),
        (PicassoConfig, "prefetch_inflight_bytes"),
    ])
    def test_non_finite_byte_budgets_rejected(self, leg, name):
        # NaN budgets used to run as if unset.
        for value in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match=name):
                leg(**{name: value})

    def test_zero_hot_storage_accepted(self):
        assert PicassoConfig(hot_storage_bytes=0).hot_storage_bytes == 0

    @pytest.mark.parametrize("leg, name", [
        (PrefetchConfig, "policy"),
        (PicassoConfig, "prefetch_policy"),
    ])
    def test_unknown_prefetch_policy_rejected(self, leg, name):
        # "typo" used to run silently as "hotness".
        for value in ("typo", ""):
            with pytest.raises(ValueError, match=name):
                leg(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("model", "BERT"), ("dataset", "ImageNet"),
        ("framework", "MXNet"), ("cluster", "gn6e:-3"),
    ])
    def test_run_config_names_checked_at_construction(self, name, value):
        with pytest.raises(ValueError, match=name):
            RunConfig(**{name: value})

    def test_numpy_integers_accepted(self):
        config = RunConfig(batch_size=np.int64(512),
                           iterations=np.int32(2),
                           picasso=PicassoConfig(micro_batches=512))
        assert config.batch_size == 512

    def test_defaults_resolve(self):
        config = RunConfig()
        assert config.framework == "PICASSO"
        assert config.resolved_cluster().num_nodes == 16
        model = config.build_model()
        assert model.name == "W&D"

    def test_with_overrides(self):
        swept = TINY.with_overrides(framework="TF-PS", batch_size=1024)
        assert swept.framework == "TF-PS"
        assert swept.batch_size == 1024
        assert swept.model == TINY.model
        assert TINY.framework == "PICASSO"  # original untouched

    def test_as_dict_snapshot(self):
        snapshot = TINY.as_dict()
        assert snapshot["cluster"] == "EFLOPS:2"
        assert snapshot["model"] == "DLRM"
        assert snapshot["batch_size"] == 512

    def test_unknown_model_and_dataset(self):
        with pytest.raises(ValueError):
            RunConfig(model="BERT").build_model()
        with pytest.raises(ValueError):
            RunConfig(dataset="ImageNet").build_model()

    def test_round_trip_with_fault_plan(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", time_s=1.0, duration_s=0.5),))
        config = TINY.with_overrides(fault_plan=plan)
        rebuilt = RunConfig.from_dict(config.as_dict())
        assert rebuilt.fault_plan == plan
        assert rebuilt.model == TINY.model
        assert RunConfig.from_dict(TINY.as_dict()).fault_plan is None


class TestConfigBase:
    """The shared serialization contract all facade configs ride on."""

    def test_unknown_key_rejected_everywhere(self):
        for cls in (RunConfig, ServeConfig, StreamConfig,
                    PicassoConfig):
            with pytest.raises(ValueError,
                               match=f"unknown {cls.__name__}"):
                cls.from_dict({"not_a_field": 1})

    def test_with_overrides_revalidates(self):
        with pytest.raises(ValueError):
            TINY.with_overrides(batch_size=0)
        with pytest.raises(ValueError):
            TINY.with_overrides(iterations=0)
        with pytest.raises(ValueError):
            ServeConfig().with_overrides(replicas=0)
        with pytest.raises(ValueError):
            PicassoConfig().with_overrides(micro_batches=0)

    def test_picasso_field_round_trips(self):
        config = TINY.with_overrides(
            picasso=PicassoConfig(micro_batches=2,
                                  hot_storage_bytes=float(1 << 30)))
        snapshot = config.as_dict()
        assert snapshot["picasso"]["micro_batches"] == 2
        rebuilt = RunConfig.from_dict(snapshot)
        assert rebuilt.picasso == config.picasso
        assert rebuilt.as_dict() == snapshot

    def test_parse_cluster_is_case_insensitive(self):
        # as_dict emits the canonical upper-case testbed name; a
        # round-tripped config must resolve it back.
        assert api.parse_cluster("EFLOPS:2").num_nodes == 2
        rebuilt = RunConfig.from_dict(TINY.as_dict())
        assert rebuilt.resolved_cluster().num_nodes == 2

    def test_stream_config_round_trips(self):
        config = StreamConfig(requests=100, train_steps=10)
        rebuilt = StreamConfig.from_dict(config.as_dict())
        assert rebuilt.as_dict() == config.as_dict()


class TestFrameworkRegistry:
    def test_built_ins_registered(self):
        names = api.frameworks()
        assert "PICASSO" in names
        assert "TF-PS" in names

    def test_duplicate_name_rejected_without_overwrite(self):
        with pytest.raises(ValueError):
            api.register_framework("PICASSO", lambda *a: None)

    def test_runner_must_be_callable(self):
        with pytest.raises(TypeError):
            api.register_framework("NotCallable", runner=42)
        with pytest.raises(ValueError):
            api.register_framework("", lambda *a: None)

    def test_plugin_framework_dispatches_through_run(self):
        calls = []

        def runner(config, model, cluster):
            calls.append((config.framework, model.name,
                          cluster.num_nodes))
            return api.run(config.with_overrides(framework="PICASSO"),
                           model=model)

        api.register_framework("TestPlugin", runner)
        try:
            assert "TestPlugin" in api.frameworks()
            report = api.run(TINY.with_overrides(framework="TestPlugin"))
            assert report.ips > 0
            assert calls == [("TestPlugin", "DLRM", 2)]
        finally:
            api._FRAMEWORK_REGISTRY.pop("TestPlugin", None)

    def test_framework_runner_lookup(self):
        assert callable(api.framework_runner("PICASSO"))
        with pytest.raises(ValueError, match="unknown framework"):
            api.framework_runner("MXNet")


class TestRunFacade:
    def test_unknown_framework_rejected(self):
        with pytest.raises(ValueError):
            api.run(TINY.with_overrides(framework="MXNet"))

    def test_run_returns_report(self):
        report = api.run(TINY)
        assert report.ips > 0
        assert report.result.makespan > 0
        # record_tasks defaults off: no per-task telemetry collected.
        assert report.result.task_records == []

    def test_record_tasks_collects_records(self):
        report = api.run(TINY.with_overrides(record_tasks=True))
        assert len(report.result.task_records) > 0
        summary = report.result.summary()
        assert summary.task_count == len(report.result.task_records)

    def test_model_reuse_matches_rebuild(self):
        model = TINY.build_model()
        with_reuse = api.run(TINY, model=model)
        without = api.run(TINY)
        assert with_reuse.ips == pytest.approx(without.ips)

    def test_every_framework_runs(self):
        for framework in api.frameworks():
            report = api.run(TINY.with_overrides(framework=framework))
            assert report.ips > 0, framework

    def test_picasso_beats_base(self):
        picasso = api.run(TINY)
        base = api.run(TINY.with_overrides(framework="PICASSO(Base)"))
        assert picasso.ips > base.ips


class TestProfileFacade:
    def test_profile_result_shape(self):
        result = api.profile(TINY, top_k=5)
        assert isinstance(result, ProfileResult)
        assert result.report.ips > 0
        assert result.critical_path.top_k == 5
        assert validate_chrome_trace(result.trace) > 0

    def test_profile_embeds_workload_metadata(self):
        result = api.profile(TINY)
        workload = result.trace["otherData"]["workload"]
        assert workload["model"] == "DLRM"
        assert workload["record_tasks"] is True


class TestServeFacade:
    def test_serve_returns_report(self):
        report = api.serve(ServeConfig(requests=300))
        assert report.served + report.shed == 300
        assert report.qps > 0
        assert report.degraded is None

    def test_with_overrides_and_round_trip(self):
        base = ServeConfig(requests=500, cache="hbm")
        swept = base.with_overrides(cache="dram", max_batch_size=128)
        assert swept.cache == "dram"
        assert swept.max_batch_size == 128
        assert base.cache == "hbm"  # original untouched
        assert ServeConfig.from_dict(swept.as_dict()) == swept

    def test_round_trip_with_fault_plan(self):
        plan = FaultPlan.periodic(crash_rate=50.0, duration_s=0.02,
                                  crash_downtime_s=0.005, workers=2)
        config = ServeConfig(requests=200, replicas=2, fault_plan=plan)
        rebuilt = ServeConfig.from_dict(config.as_dict())
        assert rebuilt == config
        assert rebuilt.fault_plan == plan

    def test_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(requests=0)
        with pytest.raises(ValueError):
            ServeConfig(replicas=0)
        with pytest.raises(ValueError):
            ServeConfig(cache="tape")

    def test_serve_matches_direct_simulation(self):
        from repro.serving.server import simulate_serving

        config = ServeConfig(requests=400, seed=3, cache="hbm")
        via_facade = api.serve(config)
        direct = simulate_serving(config)
        assert via_facade.as_dict() == direct.as_dict()


class TestFacadeLegValidation:
    """Every config leg rejects bad fields at construction, with a
    ValueError naming the field, through RunConfig's shared checks."""

    def test_float_serve_requests_rejected(self):
        # Used to die in numpy: "expected a sequence of integers".
        with pytest.raises(ValueError, match="requests"):
            api.serve(ServeConfig(requests=1.5))

    @pytest.mark.parametrize("leg", [ServeConfig, StreamConfig])
    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0])
    def test_bad_rate_rejected(self, leg, rate):
        # nan used to die in the histogram code without naming a field.
        with pytest.raises(ValueError, match="rate_qps"):
            leg(rate_qps=rate)

    @pytest.mark.parametrize("leg", [ServeConfig, StreamConfig])
    @pytest.mark.parametrize("name, value", [
        # nan slo_s used to run with admission control silently off.
        ("slo_s", float("nan")), ("slo_s", 0.0), ("slo_s", float("inf")),
        ("max_wait_s", float("inf")), ("max_wait_s", -0.001),
        ("max_wait_s", float("nan")),
        # seed=-1 used to die inside numpy without naming a field.
        ("seed", -1), ("seed", 1.5),
        # hot_rows=-5 used to fail as capacity_bytes.
        ("hot_rows", -5), ("warm_rows", -1),
        ("variant", "mlp"), ("cache", "tape"),
    ])
    def test_bad_serving_field_rejected(self, leg, name, value):
        with pytest.raises(ValueError, match=name):
            leg(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("train_step_s", 0.0), ("train_step_s", float("nan")),
        ("drift_ids_per_step", -1.0), ("drift_ids_per_step", float("inf")),
        ("load_share", 1.0), ("load_share", -0.1),
        ("load_share", float("nan")),
        ("autoscale", "yes"), ("hot_swaps", None),
    ])
    def test_bad_stream_field_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            StreamConfig(**{name: value})

    def test_replica_bounds_ordered(self):
        with pytest.raises(ValueError, match="max_replicas"):
            StreamConfig(min_replicas=3, max_replicas=2)

    def test_zero_sized_fields_accepted(self):
        config = ServeConfig(seed=0, hot_rows=0, warm_rows=0,
                             max_wait_s=0.0)
        assert config.hot_rows == 0
        assert StreamConfig(drift_ids_per_step=0.0, load_share=0.0)

    def test_float_stream_train_steps_rejected(self):
        # Used to run silently.
        with pytest.raises(ValueError, match="train_steps"):
            StreamConfig(train_steps=2.5)

    def test_string_serve_requests_rejected_from_dict(self):
        # Used to raise TypeError: '<' not supported for str and int.
        with pytest.raises(ValueError, match="requests"):
            ServeConfig.from_dict({"requests": "7"})

    @pytest.mark.parametrize("leg, name", [
        (ServeConfig, "replicas"),
        (ServeConfig, "max_batch_size"),
        (ServeConfig, "micro_batch_rows"),
        (StreamConfig, "requests"),
        (StreamConfig, "publish_interval"),
        (StreamConfig, "train_batch_size"),
        (StreamConfig, "max_chain"),
        (StreamConfig, "min_replicas"),
        (TuneConfig, "top_k"),
        (TuneConfig, "diversity_cap"),
        (PicassoConfig, "flush_iters"),
        (PicassoConfig, "prefetch_lookahead"),
        (PrefetchConfig, "lookahead_depth"),
    ])
    def test_non_integer_counts_rejected(self, leg, name):
        for value in (1.5, True, 0):
            with pytest.raises(ValueError, match=name):
                leg(**{name: value})

    def test_numpy_integers_accepted(self):
        config = ServeConfig(requests=np.int64(300), replicas=np.int32(1),
                             rate_qps=np.float64(5_000.0))
        assert config.requests == 300


class TestProfileFaultPlan:
    def test_profile_reports_fault_schedule(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", time_s=0.001, duration_s=0.001),))
        result = api.profile(TINY.with_overrides(fault_plan=plan))
        assert "faults" in result.monitors
        verdict = result.monitors["faults"]
        assert verdict.healthy
        assert verdict.summary["crash_events"] == 1

    def test_profile_without_plan_has_no_faults_monitor(self):
        assert "faults" not in api.profile(TINY).monitors


class TestStatsProtocol:
    """Every headline-number object exports a plain-dict snapshot."""

    def test_conformance(self):
        examples = [
            CacheStats(hot_hits=3, cold_misses=1, flushes=0),
            TierStats(hits=4),
            TrainResult(auc=0.7, logloss=0.3, steps=10, losses=[0.3]),
            ServingReport(served=1, shed=0, p50_ms=1.0, p95_ms=2.0,
                          p99_ms=3.0, qps=10.0, shed_rate=0.0,
                          cache_hit_ratio=0.5, makespan_s=0.1,
                          stage_seconds={}),
            SimSummary(makespan=1.0, task_count=2, event_count=3),
        ]
        for example in examples:
            assert isinstance(example.as_dict(), dict), \
                type(example).__name__
