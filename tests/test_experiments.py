"""Smoke tests for the experiment harnesses (reduced sizes).

Each experiment's full-size run, with its paper claims checked, is
``python -m repro.experiments.runner``; here we verify the harness code
paths with small parameters and the claim gate's wiring.
"""

import io

import pytest

from repro.api import RunConfig
from repro.cli import main
from repro.experiments import (
    fig01_gpu_util,
    fig03_distribution,
    fig10_walltime,
    fig13_ips,
    fig15_scaling,
    runner,
    serving_latency,
    tab03_auc,
    tab04_ablation,
    tab05_op_counts,
    tab06_hot_storage,
    tab07_twelve_models,
    tab08_feature_fields,
    tab09_production,
    tab10_model_scale,
)
from repro.experiments.common import (
    BENCHMARK_BATCH_SIZES,
    Check,
    benchmark_model,
    format_table,
    mini_alibaba,
    mini_criteo,
    production_model,
    run_framework,
)
from repro.experiments.shard_placement import SKEWS, WORKER_COUNTS
from repro.experiments.tab06_hot_storage import HOT_SIZES
from repro.hardware import eflops_cluster

BENCH_MODELS = ("DLRM", "DeepFM", "DIN", "DIEN")
PRODUCTION_MODELS = ("W&D", "CAN", "MMoE")
FOUR_SYSTEMS = ("TF-PS", "PyTorch", "Horovod", "PICASSO")

#: Rows shaped like each runner entry's, with values its claims accept
#: (the paper's own table where it has the same columns).
PASSING_ROWS = {
    "Fig. 1 GPU utilization trend": [{"gpu_util_pct": 20.0}],
    "Fig. 3 ID distribution": [{"top20_coverage_pct": 70.0}],
    "Fig. 5 worker-side breakdown": [
        {"model": model, "strategy": strategy, "category": category,
         "active_pct": active}
        for model, strategy, category, active in (
            ("W&D", "MP", "communication", 20.0),
            ("CAN", "MP", "communication", 60.0),
            ("CAN", "PS", "communication", 70.0),
            ("W&D", "MP", "compute", 5.0),
            ("MMoE", "MP", "compute", 50.0))],
    "Tab. III AUC": [{"model": model, "system": system, "auc": 0.80}
                     for model in BENCH_MODELS for system in FOUR_SYSTEMS],
    "Fig. 10 walltime": [
        {"model": model, "framework": framework, "ips": ips}
        for model in BENCH_MODELS
        for framework, ips in zip(FOUR_SYSTEMS, (1, 2, 3, 10))],
    "Fig. 11 SM-utilization CDF": [
        {"framework": framework, "time_below_20pct_util": low}
        for framework, low in zip(FOUR_SYSTEMS, (50.0, 30.0, 30.0, 1.0))],
    "Fig. 12 bandwidth": [
        {"framework": framework, "nvlink_mean_gbps": mean,
         "nvlink_peak_gbps": 2 * mean}
        for framework, mean in zip(FOUR_SYSTEMS, (0.0, 1.0, 1.0, 1.0))],
    "Fig. 13 production IPS": [
        {"model": model, "system": system, "ips": ips}
        for model in PRODUCTION_MODELS
        for system, ips in (("TF-PS", 1), ("PICASSO(Base)", 1),
                            ("PICASSO", 4))],
    "Tab. IV ablation": tab04_ablation.paper_reference(),
    "Tab. V operation counts": tab05_op_counts.paper_reference(),
    "Fig. 14 interleaving groups": [
        {"model": model, "interleave_groups": groups, "ips": ips}
        for model in PRODUCTION_MODELS
        for groups, ips in ((1, 100), (3, 120))],
    "Fig. 14 micro-batches": [
        {"model": model, "micro_batches": micro, "ips": ips}
        for model in PRODUCTION_MODELS
        for micro, ips in ((1, 100), (2, 120))],
    "Tab. VI hot-storage sweep": [
        {"model": model, "hot_storage": size, "hit_ratio_pct": hit,
         "ips": 100}
        for model in PRODUCTION_MODELS
        for size, hit in zip(HOT_SIZES, (9, 18, 24, 28, 31))],
    "Fig. 15 scaling out": [
        {"model": model, "workers": workers, "cluster_ips": 100 * workers}
        for model in PRODUCTION_MODELS for workers in (1, 2, 4)],
    "Tab. VII twelve models": [
        {"ips_gain_pct": 50, "sm_gain_pct": 60, "xdl_batch": 10,
         "picasso_batch": 20}] * 10,
    "Tab. VIII feature-field sweep": [
        {"picasso_ips": ips, "picasso_vs_ap_pct": gap,
         "xdl_vs_ap_pct": -gap}
        for ips, gap in ((100, 0.0), (52, 4.0))],
    "Tab. IX production summary": tab09_production.paper_reference(),
    "Tab. X model-scale walltime": tab10_model_scale.paper_reference(),
    "Serving latency-throughput": [
        {"sweep": "cache", "cache": cache, "p99_ms": p99, "shed": shed}
        for cache, p99, shed in (("all-HBM", "1.0", 0),
                                 ("HBM->DRAM", "1.5", 0),
                                 ("HBM->DRAM->SSD", "13.0", 3976),
                                 ("DRAM-only", "2.0", 0))] + [
        {"sweep": "batcher", "p50_ms": p50, "shed_rate": "0.00%"}
        for p50 in ("0.3", "1.1", "4.7")],
    "Fault recovery goodput": [
        {"crash_rate": rate, "ckpt_interval": interval,
         "goodput": goodput, "trajectory": "exact"}
        for rate, interval, goodput in (("0", 0, "1.000"),
                                        ("0.04", 0, "0.571"),
                                        ("0.04", 1, "0.964"),
                                        ("0.1", 0, "0.526"),
                                        ("0.1", 1, "0.904"))],
    "Shard placement skew sweep": [
        {"skew": f"{skew:g}", "workers": workers,
         "hash_ratio": 1.0 + workers / 10, "planned_ratio": 1.02,
         "ratio_cut_pct": 40.0, "max_bytes_cut_pct": 80.0}
        for skew in SKEWS for workers in WORKER_COUNTS],
    "Staleness vs AUC (publish cadence)": [
        {"auc": auc} for auc in ("0.63", "0.61", "0.59", "0.56")],
    "Auto-tuning strategy comparison": [
        {"strategy": "coordinate-descent", "gain_pct": "+23.1",
         "fidelity_pct": "+10.5"},
        {"strategy": "warmup-grid", "gain_pct": "+11.9",
         "fidelity_pct": "+0.0"}],
    "Run-health monitors": [
        {"framework": framework, "mem/compute/idle": "4/2/7",
         "alternations": 4} for framework in ("TF-PS", "PyTorch")],
    "Overlap-ratio ablation": [
        {"variant": "interleaving on", "overlap": "23.0%"},
        {"variant": "interleaving off", "overlap": "1.0%"}],
    "Trace-diff attribution (interleave_sets=1)": [
        {"path_delta_ms": delta}
        for delta in ("-12.135", "+4.342", "+0.000", "-5.724")],
}

#: Stub runner entries: one claim that holds, one that does not.
STUB_PASSING = ("Stub passing", lambda: [{"x": 1}],
                lambda rows: [Check("x is 1", rows[0]["x"] == 1)])
STUB_FAILING = ("Stub failing", lambda: [{"x": 1}],
                lambda rows: [Check("x is 2", rows[0]["x"] == 2)])


class TestCommon:
    def test_benchmark_models_resolve(self):
        for name in BENCHMARK_BATCH_SIZES:
            model, dataset = benchmark_model(name)
            assert model.name == name
            assert dataset.num_fields > 0

    def test_benchmark_model_cached(self):
        first, _ = benchmark_model("DLRM")
        second, _ = benchmark_model("DLRM")
        assert first is second

    def test_unknown_models_rejected(self):
        with pytest.raises(KeyError):
            benchmark_model("BERT")
        with pytest.raises(KeyError):
            production_model("BERT")

    def test_catalogs_do_not_leak_into_each_other(self):
        # The two used to share one name-keyed cache, so a production
        # model built first was then served as a benchmark model.
        production_model("W&D")
        with pytest.raises(KeyError):
            benchmark_model("W&D")
        benchmark_model("DLRM")
        with pytest.raises(KeyError):
            production_model("DLRM")

    def test_catalog_models_share_the_facade_memo(self):
        model, dataset = production_model("CAN")
        assert model is RunConfig(model="CAN",
                                  dataset="Product-2").build_model()
        assert dataset is model.dataset

    def test_run_framework_dispatch(self):
        model, _dataset = benchmark_model("DLRM")
        cluster = eflops_cluster(2)
        for name in ("TF-PS", "PICASSO", "PICASSO(Base)"):
            report = run_framework(name, model, cluster, 1024,
                                   iterations=1)
            assert report.ips > 0

    def test_mini_datasets(self):
        assert mini_criteo(fields=5).num_fields == 5
        mini = mini_alibaba(profile_fields=2, behavior_fields=1,
                            seq_length=4)
        assert mini.ids_per_instance == 2 + 4

    def test_format_table(self):
        text = format_table([{"a": 1, "b": "x"}], ["a", "b"])
        assert "a" in text and "x" in text


class TestLightExperiments:
    def test_fig03(self):
        rows = fig03_distribution.run_id_distribution(
            sample_batches=1, batch_size=2000, scale=0.01)
        assert len(rows) == 5

    def test_tab05(self):
        rows = tab05_op_counts.run_op_counts(num_nodes=4)
        assert {row["model"] for row in rows} == {"W&D", "CAN", "MMoE"}

    def test_tab03_single_model(self):
        rows = [row for row in tab03_auc.run_auc(steps=10,
                                                 eval_batches=2)
                if row["model"] == "DLRM"]
        assert len(rows) == 4

    def test_paper_references_well_formed(self):
        assert fig01_gpu_util.paper_reference()["band"]
        assert len(tab04_ablation.paper_reference()) == 12
        assert len(tab07_twelve_models.paper_reference()) == 12
        assert len(tab10_model_scale.paper_reference()) == 4
        assert fig10_walltime.paper_reference()["speedup_vs_tf_ps"]

    def test_fig13_accelerations_math(self):
        rows = [
            {"model": "X", "system": "TF-PS", "ips": 100},
            {"model": "X", "system": "PICASSO", "ips": 400},
        ]
        accel = fig13_ips.accelerations(rows)
        assert accel[0]["picasso_vs_ps"] == 4.0

    def test_fig15_efficiency_math(self):
        rows = [
            {"model": "X", "workers": 1, "cluster_ips": 100},
            {"model": "X", "workers": 4, "cluster_ips": 300},
        ]
        eff = fig15_scaling.scaling_efficiency(rows)
        assert eff[0]["efficiency_pct"] == pytest.approx(75.0)

    def test_fig10_speedup_math(self):
        rows = [
            {"model": "X", "framework": "TF-PS", "ips": 10},
            {"model": "X", "framework": "PyTorch", "ips": 20},
            {"model": "X", "framework": "Horovod", "ips": 25},
            {"model": "X", "framework": "PICASSO", "ips": 50},
        ]
        speedups = fig10_walltime.speedups(rows)
        assert speedups[0]["vs_tf_ps"] == 5.0
        assert speedups[0]["vs_best_baseline"] == 2.0

    def test_tab08_small_sweep(self):
        rows = tab08_feature_fields.run_feature_field_sweep(
            multiples=(1, 2), batch_size=1024, iterations=1,
            num_nodes=2, scale=0.002)
        assert len(rows) == 2
        assert rows[0]["picasso_vs_ap_pct"] == 0.0

    def test_tab06_structure(self):
        rows = tab06_hot_storage.run_hot_storage_sweep(
            iterations=1, num_nodes=2, models=("W&D",))
        assert len(rows) == 5
        assert all("hit_ratio_pct" in row for row in rows)

    def test_tab07_subset(self):
        rows = tab07_twelve_models.run_twelve_models(
            iterations=1, num_nodes=2, scale=0.002, models=("LR", "DCN"))
        assert len(rows) == 2

    def test_fig03_coverage_curve_monotone(self):
        id_frac, data_frac = fig03_distribution.run_coverage_curve()
        assert len(id_frac) == len(data_frac)
        # Coverage curves are nondecreasing and end at 100%.
        assert all(b >= a for a, b in zip(data_frac, data_frac[1:]))
        assert abs(data_frac[-1] - 1.0) < 1e-9

    def test_serving_rows_carry_both_sweeps(self, monkeypatch):
        # The runner prints run_serving_latency(); its claims must read
        # the rows run_cache_sweep(4_000, 0) and run_batcher_sweep(4_000,
        # 0) return, unchanged.
        sweeps = {
            "run_cache_sweep": [{"cache": "all-HBM", "p99_ms": "1.394",
                                 "shed": 0}],
            "run_batcher_sweep": [{"batch_max": 16, "wait_ms": 0.5,
                                   "p50_ms": "0.347",
                                   "shed_rate": "0.00%"}],
        }
        calls = []
        for name, rows in sweeps.items():
            def sweep(*args, name=name, rows=rows):
                calls.append((name, args))
                return rows
            monkeypatch.setattr(serving_latency, name, sweep)
        merged = serving_latency.run_serving_latency()
        assert calls == [("run_cache_sweep", (4_000, 0)),
                         ("run_batcher_sweep", (4_000, 0))]
        assert [{key: value for key, value in row.items()
                 if key != "sweep" and value != "-"}
                for row in merged] \
            == sweeps["run_cache_sweep"] + sweeps["run_batcher_sweep"]


class TestClaimGate:
    def test_every_experiment_checks_claims(self):
        titles = [title for title, _run, _claims in runner.EXPERIMENTS]
        assert sorted(titles) == sorted(PASSING_ROWS)
        for title, _run, claims in runner.EXPERIMENTS:
            checks = claims(PASSING_ROWS[title])
            assert checks, title
            assert all(isinstance(check, Check) and check.passed
                       for check in checks), (title, checks)

    def test_run_all_fails_on_a_failed_claim(self, monkeypatch):
        monkeypatch.setattr(runner, "EXPERIMENTS",
                            [STUB_PASSING, STUB_FAILING])
        out = io.StringIO()
        assert runner.run_all(stream=out) \
            == [("Stub failing", Check("x is 2", False))]
        text = out.getvalue()
        assert "PASS  x is 1" in text
        assert "FAIL  x is 2" in text
        assert "claims: 1/2 hold" in text

    def test_runner_main_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(runner, "EXPERIMENTS", [STUB_PASSING])
        assert runner.main() == 0
        monkeypatch.setattr(runner, "EXPERIMENTS",
                            [STUB_PASSING, STUB_FAILING])
        assert runner.main() == 1

    def test_cli_experiment_exits_1_on_a_failed_claim(self, monkeypatch,
                                                      capsys):
        monkeypatch.setattr(runner, "EXPERIMENTS",
                            [STUB_PASSING, STUB_FAILING])
        assert main(["experiment", "Stub passing"]) == 0
        assert main(["experiment", "Stub failing"]) == 1
        assert "FAIL  x is 2" in capsys.readouterr().out
