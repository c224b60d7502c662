"""Tests for skew-aware shard placement and its integrations."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import PicassoConfig, PicassoPlanner
from repro.data import criteo
from repro.data.spec import FieldSpec
from repro.data.synthetic import BoundedZipf
from repro.embedding import (
    ExchangeLoad,
    FrequencyCounter,
    LoadProfile,
    PlacementPlan,
    PlannerConfig,
    ShardPlanner,
    compare_policies,
    max_mean_ratio,
    measure_exchange,
    predict_imbalance,
    shard_for_id,
)
from repro.hardware import eflops_cluster
from repro.models import wide_deep
from repro.telemetry import SkewMonitor, Tracer
from repro.telemetry.monitor import emit_alerts


def _spec(name="f0", vocab=20_000, dim=16, skew=1.2):
    return FieldSpec(name=name, vocab_size=vocab, embedding_dim=dim,
                     zipf_exponent=skew)


def _profiles(num_fields=4, workers=8, batch=2_048, skew=1.2):
    planner = ShardPlanner(workers)
    specs = [_spec(name=f"f{index}", skew=skew)
             for index in range(num_fields)]
    return planner.profiles_for_fields(specs, batch), specs


def _batches(spec, workers, per_worker, seed=0):
    rng = np.random.default_rng(seed)
    zipf = BoundedZipf(spec.vocab_size, spec.zipf_exponent)
    return [zipf.sample(per_worker, rng) for _ in range(workers)]


class TestLoadProfile:
    def test_from_field_masses_sum_to_batch(self):
        profile = LoadProfile.from_field(
            _spec(), batch_size=1_024, num_workers=8)
        total = profile.total_weight
        assert total == pytest.approx(1_024 * 8, rel=1e-6)

    def test_tail_weight_positive_at_high_skew(self):
        # The point-mass Zipf approximation would leave no tail mass
        # at s=1.4; the exact CDF bin masses must.
        profile = LoadProfile.from_field(
            _spec(skew=1.4), batch_size=1_024, num_workers=8)
        assert profile.tail_weight > 0.0

    def test_from_counter_matches_observed(self):
        counter = FrequencyCounter()
        counter.observe(np.array([0, 0, 0, 1, 1, 2]))
        profile = LoadProfile.from_counter(
            "obs", counter, dim=8, vocab_size=100, batch_size=60,
            num_workers=2)
        assert profile.hot_ids[0] == 0
        # ID 0 carries half the traffic: 60 ids/worker * 2 workers.
        assert profile.hot_weights[0] == pytest.approx(60.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadProfile.from_field(_spec(), batch_size=0, num_workers=2)
        with pytest.raises(ValueError):
            LoadProfile(name="x", dim=0, vocab_size=10,
                        hot_ids=np.zeros(0, dtype=np.int64),
                        hot_weights=np.zeros(0),
                        hot_batch_prob=np.zeros(0), tail_weight=0.0)


class TestPlanEdgeCases:
    def test_single_worker_plan_is_trivially_balanced(self):
        profiles, specs = _profiles(workers=1)
        plan = ShardPlanner(1).plan(profiles)
        assert plan.predicted_ratio() == 1.0
        load = measure_exchange(plan, "f0",
                                [_batches(specs[0], 1, 512)[0]])
        assert load.total_bytes == 0.0
        assert load.max_mean_ratio == 1.0

    def test_empty_batches_price_to_zero(self):
        profiles, _specs = _profiles(workers=4)
        plan = ShardPlanner(4).plan(profiles)
        empty = [np.zeros(0, dtype=np.int64)] * 4
        load = measure_exchange(plan, "f0", empty)
        assert load.total_bytes == 0.0
        assert load.local_bytes == 0.0
        assert load.max_mean_ratio == 1.0

    def test_all_ids_one_shard_is_rebalanced(self):
        # Pathological traffic: every lookup hits one cold ID, which
        # hash sharding serves from a single worker.
        spec = _spec(vocab=1_000)
        workers = 4
        hot_id = 999
        batches = [np.full(256, hot_id, dtype=np.int64)
                   for _ in range(workers)]
        counter = FrequencyCounter()
        for ids in batches:
            counter.observe(ids)
        profile = LoadProfile.from_counter(
            spec.name, counter, dim=spec.embedding_dim,
            vocab_size=spec.vocab_size, batch_size=256,
            num_workers=workers)
        planner = ShardPlanner(workers)
        hashed = planner.plan([profile], policy="hash")
        planned = planner.plan([profile], policy="planned")
        hash_load = measure_exchange(hashed, spec.name, batches)
        planned_load = measure_exchange(planned, spec.name, batches)
        assert hash_load.max_mean_ratio == pytest.approx(workers)
        # The planner replicates the ID: no exchange at all.
        assert planned.owner_of(spec.name, [hot_id])[0] == -1
        assert planned_load.total_bytes == 0.0
        assert planned_load.replicated_bytes > 0.0

    def test_plan_requires_profiles(self):
        with pytest.raises(ValueError):
            ShardPlanner(4).plan([])

    def test_duplicate_field_names_rejected(self):
        profiles, _specs = _profiles(num_fields=1, workers=2)
        with pytest.raises(ValueError):
            ShardPlanner(2).plan(profiles + profiles)

    def test_unknown_policy_rejected(self):
        profiles, _specs = _profiles(num_fields=1, workers=2)
        with pytest.raises(ValueError):
            ShardPlanner(2).plan(profiles, policy="random")

    def test_unknown_field_rejected(self):
        profiles, _specs = _profiles(num_fields=1, workers=2)
        plan = ShardPlanner(2).plan(profiles)
        with pytest.raises(KeyError, match="not in plan"):
            plan.owner_of("missing", [1, 2])


class TestPlanRoundTrip:
    def test_as_dict_from_dict_round_trip(self):
        profiles, specs = _profiles(workers=8)
        plan = ShardPlanner(8).plan(profiles)
        clone = PlacementPlan.from_dict(
            json.loads(json.dumps(plan.as_dict())))
        assert clone.num_workers == plan.num_workers
        assert clone.policy == plan.policy
        assert set(clone.fields) == set(plan.fields)
        ids = _batches(specs[0], 1, 2_048)[0]
        for name in plan.fields:
            assert np.array_equal(clone.owner_of(name, ids),
                                  plan.owner_of(name, ids))
        assert clone.predicted_ratio() == \
            pytest.approx(plan.predicted_ratio())

    def test_summary_keys(self):
        profiles, _specs = _profiles(workers=4)
        summary = ShardPlanner(4).plan(profiles).summary()
        assert summary["policy"] == "planned"
        assert summary["workers"] == 4
        assert summary["replicated_rows"] > 0
        assert summary["predicted_ratio"] >= 1.0


class TestHashPlanEquivalence:
    def test_hash_plan_matches_shard_for_id(self):
        profiles, specs = _profiles(workers=8)
        plan = ShardPlanner(8).plan(profiles, policy="hash")
        ids = _batches(specs[0], 1, 4_096)[0]
        assert np.array_equal(plan.owner_of("f0", ids),
                              shard_for_id(ids, 8))


class TestLptPacking:
    def test_zero_cost_items_spread_over_workers(self):
        # Cold tail partitions cost ~0 exchange bytes; the tie-break
        # must still spread their HBM over all workers instead of
        # piling them onto worker 0.
        spec = _spec(skew=1.4)
        planner = ShardPlanner(8)
        plan = planner.plan(
            planner.profiles_for_fields([spec], 2_048))
        owners = plan.fields[spec.name].tail_owners
        counts = np.bincount(owners, minlength=8)
        assert counts.min() > 0

    def test_hbm_budget_vetoes_overloaded_worker(self):
        profiles, _specs = _profiles(workers=4)
        unbounded = ShardPlanner(4).plan(profiles)
        budget = float(unbounded.predicted_hbm.max()) * 0.9
        bounded = ShardPlanner(
            4, PlannerConfig(hbm_budget_bytes=budget)).plan(profiles)
        assert float(bounded.predicted_hbm.max()) \
            <= float(unbounded.predicted_hbm.max())

    def test_impossible_budget_still_places_everything(self):
        profiles, specs = _profiles(num_fields=1, workers=2)
        plan = ShardPlanner(
            2, PlannerConfig(hbm_budget_bytes=1.0)).plan(profiles)
        ids = _batches(specs[0], 1, 512)[0]
        owners = plan.owner_of(specs[0].name, ids)
        assert np.all((owners >= -1) & (owners < 2))


class TestAcceptance:
    def test_planned_cuts_max_mean_ratio_by_25_percent(self):
        # ISSUE 5 acceptance: Zipf(1.2), 8 workers — planned placement
        # cuts the measured max/mean AllToAllv bytes by >= 25%.
        workers, per_worker = 8, 4_096
        profiles, specs = _profiles(
            num_fields=4, workers=workers, batch=per_worker, skew=1.2)
        batches = {spec.name: _batches(spec, workers, per_worker,
                                       seed=index)
                   for index, spec in enumerate(specs)}
        result = compare_policies(profiles, batches, workers)
        hash_ratio = result["hash"].max_mean_ratio
        planned_ratio = result["planned"].max_mean_ratio
        assert hash_ratio > 1.5
        assert planned_ratio < hash_ratio
        cut = 1.0 - planned_ratio / hash_ratio
        assert cut >= 0.25
        # And the gating quantity itself (max shard bytes) drops.
        assert result["planned"].max_bytes < result["hash"].max_bytes


class TestPredictImbalance:
    def test_single_worker_returns_one(self):
        assert predict_imbalance([_spec()], 1, 1_024) == 1.0

    def test_hash_predicts_skew_planned_does_not(self):
        fields = [_spec(name=f"f{index}") for index in range(4)]
        hashed = predict_imbalance(fields, 8, 2_048, policy="hash")
        planned = predict_imbalance(fields, 8, 2_048, policy="planned")
        assert hashed > 1.2
        assert 1.0 <= planned < hashed

    def test_matches_ungrouped_planning(self):
        # Field grouping (identical shapes planned once, scaled) must
        # price the same as planning every field separately.
        fields = [_spec(name=f"f{index}") for index in range(3)]
        grouped = predict_imbalance(fields, 4, 1_024, policy="hash")
        planner = ShardPlanner(4)
        ungrouped = planner.plan(
            planner.profiles_for_fields(fields, 1_024),
            policy="hash").predicted_ratio()
        assert grouped == pytest.approx(ungrouped, rel=1e-6)


class TestSkewMonitor:
    def test_balanced_load_is_healthy(self):
        report = SkewMonitor().analyze(
            ExchangeLoad(per_worker_bytes=np.full(4, 100.0)))
        assert report.healthy
        assert report.summary["max_mean_ratio"] == pytest.approx(1.0)

    def test_skewed_load_alerts_with_hottest_worker(self):
        load = ExchangeLoad(
            per_worker_bytes=np.array([1300.0, 100.0, 100.0, 100.0]))
        report = SkewMonitor(max_ratio=1.5).analyze(load, time_s=3.0)
        assert not report.healthy
        alert = report.alerts[0]
        assert alert.severity == "critical"
        assert report.summary["hottest_worker"] == 0
        tracer = Tracer()
        assert emit_alerts(tracer, [report]) == 1

    def test_accepts_raw_sequences(self):
        report = SkewMonitor().analyze([10.0, 10.0, 40.0])
        assert report.summary["max_mean_ratio"] == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SkewMonitor(max_ratio=0.5)


class TestMaxMeanRatio:
    def test_zero_load_counts_as_balanced(self):
        assert max_mean_ratio(np.zeros(4)) == 1.0
        assert max_mean_ratio([]) == 1.0


class TestCorePlannerWiring:
    def test_hash_policy_keeps_legacy_pricing(self):
        model = wide_deep(criteo(0.001))
        cluster = eflops_cluster(2)
        plan = PicassoPlanner(PicassoConfig()).plan(model, cluster, 2_000)
        assert plan.shard_imbalance is None
        assert plan.exchange_factor() == plan.cost.straggler_factor

    def test_planned_policy_prices_rebalanced_exchange(self):
        model = wide_deep(criteo(0.001))
        cluster = eflops_cluster(2)
        config = PicassoConfig(shard_policy="planned")
        plan = PicassoPlanner(config).plan(model, cluster, 2_000)
        assert plan.shard_imbalance is not None
        assert 1.0 <= plan.shard_imbalance \
            < plan.cost.straggler_factor
        assert plan.exchange_factor() == plan.shard_imbalance

    def test_unknown_shard_policy_rejected(self):
        with pytest.raises(ValueError):
            PicassoConfig(shard_policy="random")


class TestPlanShardsCli:
    def test_plan_shards_smoke(self, capsys):
        code = main(["plan-shards", "--workers", "4", "--fields", "2",
                     "--vocab", "5000", "--batch", "512"])
        assert code == 0
        out = capsys.readouterr().out
        assert "planned" in out
        assert "hash" in out

    def test_plan_shards_writes_plan_json(self, tmp_path, capsys):
        target = tmp_path / "plan.json"
        code = main(["plan-shards", "--workers", "4", "--fields", "2",
                     "--vocab", "5000", "--batch", "512",
                     "--output", str(target)])
        assert code == 0
        plan = PlacementPlan.from_dict(json.loads(target.read_text()))
        assert plan.num_workers == 4
        assert plan.policy == "planned"
