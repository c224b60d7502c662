"""Tests for repro.faults: plans, injection, recovery, degraded mode."""

import pytest

from repro.api import ServeConfig, serve
from repro.data.labeled import LabeledBatchIterator
from repro.data.spec import DatasetSpec, FieldSpec
from repro.faults import (
    DegradedModeController,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultToleranceMonitor,
    ResilientTrainer,
    plan_report,
)
from repro.nn.network import WdlNetwork
from repro.nn.optim import Adagrad
from repro.sim import Engine, Phase, Resource, ResourceKind, SimTask
from repro.training.trainer import SyncTrainer


def _engine(**capacities):
    resources = {
        kind: Resource(kind, capacity=capacity)
        for kind, capacity in capacities.items()
    }
    return Engine(resources)


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="meteor", time_s=1.0)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="crash", time_s=-1.0)
        with pytest.raises(ValueError):
            FaultEvent(kind="crash", time_s=1.0, duration_s=-0.5)

    def test_severity_ranges(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="straggler", time_s=0.0, severity=0.5)
        with pytest.raises(ValueError):
            FaultEvent(kind="link_degrade", time_s=0.0, severity=1.5)

    def test_window_queries(self):
        event = FaultEvent(kind="straggler", time_s=2.0, duration_s=3.0,
                           severity=2.0)
        assert event.end_s == pytest.approx(5.0)
        assert not event.active_at(1.9)
        assert event.active_at(2.0)
        assert event.active_at(4.9)
        assert not event.active_at(5.0)  # half-open window


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        late = FaultEvent(kind="crash", time_s=5.0)
        early = FaultEvent(kind="straggler", time_s=1.0, severity=2.0)
        plan = FaultPlan(events=(late, early))
        assert plan.events == (early, late)

    def test_generate_is_seed_deterministic(self):
        kwargs = dict(duration_s=50.0, crash_rate=0.1,
                      straggler_rate=0.05, workers=4)
        assert (FaultPlan.generate(seed=7, **kwargs)
                == FaultPlan.generate(seed=7, **kwargs))
        assert (FaultPlan.generate(seed=7, **kwargs)
                != FaultPlan.generate(seed=8, **kwargs))

    def test_generate_bounds_and_validation(self):
        plan = FaultPlan.generate(seed=0, duration_s=10.0, crash_rate=0.5)
        assert all(event.time_s < 10.0 for event in plan.events)
        with pytest.raises(ValueError):
            FaultPlan.generate(seed=0, duration_s=0.0, crash_rate=1.0)
        with pytest.raises(ValueError):
            FaultPlan.generate(seed=0, duration_s=1.0, crash_rate=-1.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_generate_rejects_non_finite_rate(self, rate):
        # An infinite rate used to draw zero gaps forever.
        with pytest.raises(ValueError, match="crash rate"):
            FaultPlan.generate(seed=0, duration_s=1.0, crash_rate=rate)

    def test_periodic_count_tracks_rate(self):
        counts = [len(FaultPlan.periodic(crash_rate=rate, duration_s=50.0))
                  for rate in (0.0, 0.04, 0.1, 0.2)]
        assert counts == [0, 2, 5, 10]
        assert counts == sorted(counts)

    def test_round_trip_is_lossless(self):
        plan = FaultPlan.generate(seed=3, duration_s=20.0, crash_rate=0.2,
                                  straggler_rate=0.1,
                                  link_degrade_rate=0.1, workers=3)
        assert len(plan) > 0
        assert FaultPlan.from_dict(plan.as_dict()) == plan

    def test_kind_and_window_queries(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", time_s=1.0, duration_s=0.5),
            FaultEvent(kind="straggler", time_s=2.0, duration_s=2.0,
                       severity=3.0),
        ))
        assert len(plan.crashes()) == 1
        assert len(plan.of_kind("straggler")) == 1
        with pytest.raises(ValueError):
            plan.of_kind("meteor")
        assert plan.between(0.0, 1.0) == (plan.events[0],)
        assert plan.active(3.0) == (plan.events[1],)
        assert plan.active(3.0, kind="crash") == ()
        assert plan.boundaries() == (1.0, 1.5, 2.0, 4.0)


class TestFaultInjector:
    def test_scale_during_windows(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="straggler", time_s=0.0, duration_s=10.0,
                       severity=4.0),
            FaultEvent(kind="link_degrade", time_s=0.0, duration_s=10.0,
                       severity=0.25),
            FaultEvent(kind="crash", time_s=20.0, duration_s=1.0),
        ))
        injector = FaultInjector(plan)
        assert injector.scale(ResourceKind.GPU_SM, 5.0) == pytest.approx(0.25)
        assert injector.scale(ResourceKind.NET, 5.0) == pytest.approx(0.25)
        # HBM is neither a compute nor a link kind: untouched.
        assert injector.scale(ResourceKind.HBM, 5.0) == pytest.approx(1.0)
        # Crash downtime blacks out everything.
        assert injector.scale(ResourceKind.HBM, 20.5) == 0.0
        # Outside every window: full capacity.
        assert injector.scale(ResourceKind.GPU_SM, 15.0) == pytest.approx(1.0)

    def test_next_boundary(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", time_s=3.0, duration_s=1.0),))
        injector = FaultInjector(plan)
        assert injector.next_boundary(0.0) == pytest.approx(3.0)
        assert injector.next_boundary(3.0) == pytest.approx(4.0)
        assert injector.next_boundary(4.0) == float("inf")

    def test_straggler_slows_engine_run(self):
        task = [SimTask("t", [Phase(ResourceKind.GPU_SM, 100.0)])]
        clean = _engine(**{ResourceKind.GPU_SM: 10.0}).run(list(task))
        plan = FaultPlan(events=(
            FaultEvent(kind="straggler", time_s=0.0, duration_s=100.0,
                       severity=2.0),))
        slowed = _engine(**{ResourceKind.GPU_SM: 10.0}).run(
            [SimTask("t", [Phase(ResourceKind.GPU_SM, 100.0)])],
            injector=FaultInjector(plan))
        assert clean.makespan == pytest.approx(10.0)
        assert slowed.makespan == pytest.approx(20.0)

    def test_crash_kills_and_requeues(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", time_s=5.0, duration_s=1.0),))
        injector = FaultInjector(plan)
        result = _engine(**{ResourceKind.NET: 10.0}).run(
            [SimTask("t", [Phase(ResourceKind.NET, 100.0)])],
            injector=injector)
        # Progress up to the crash is lost, the blackout burns 1s, and
        # the task reruns its phase from scratch: 5 + 1 + 10.
        assert result.makespan == pytest.approx(16.0)
        assert injector.crashes_applied == 1
        assert injector.tasks_killed() == 1
        (event, _time, killed), = injector.log
        assert event.kind == "crash" and killed == 1


def _tiny_dataset():
    return DatasetSpec(
        name="FaultTiny", num_numeric=2,
        fields=(FieldSpec(name="a", vocab_size=200, embedding_dim=4),
                FieldSpec(name="b", vocab_size=200, embedding_dim=4)))


def _fresh(seed=0):
    dataset = _tiny_dataset()
    network = WdlNetwork(dataset, variant="wdl", embedding_dim=4,
                         seed=seed)
    trainer = SyncTrainer(network, optimizer=Adagrad(lr=0.05))
    iterator = LabeledBatchIterator(dataset, 16, seed=seed)
    return trainer, iterator


class TestResilientTrainer:
    STEPS = 12

    def _reference_losses(self):
        trainer, iterator = _fresh()
        return [trainer.step(batch, index=index)
                for index, batch in
                enumerate(iterator.batches(self.STEPS))]

    def test_crash_resume_matches_uncrashed_bitwise(self, tmp_path):
        """The acceptance test: a crashed-and-resumed run reproduces
        the uninterrupted loss trajectory exactly, not approximately."""
        reference = self._reference_losses()
        trainer, iterator = _fresh()
        resilient = ResilientTrainer(trainer, tmp_path, ckpt_interval=4,
                                     step_time_s=1.0, ckpt_write_s=0.05,
                                     detect_s=0.1, restore_s=0.1)
        plan = FaultPlan.periodic(crash_rate=0.2,
                                  duration_s=float(self.STEPS))
        report = resilient.train(iterator, self.STEPS, fault_plan=plan)
        assert report.crashes == 2
        assert report.recoveries == 2
        assert report.replay_divergence == 0
        assert report.losses == reference  # bitwise, not approx
        assert report.mttr_s > 0
        assert report.lost_work_s > 0
        assert 0 < report.goodput < 1

    def test_interval_zero_restarts_from_scratch(self, tmp_path):
        reference = self._reference_losses()
        trainer, iterator = _fresh()
        resilient = ResilientTrainer(trainer, tmp_path, ckpt_interval=0,
                                     step_time_s=1.0)
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", time_s=8.5, duration_s=0.1),))
        report = resilient.train(iterator, self.STEPS, fault_plan=plan)
        # Every step before the crash replays from step 0, still exact.
        assert report.crashes == 1
        assert report.replayed_s == pytest.approx(8.0)
        assert report.losses == reference
        assert report.replay_divergence == 0

    def test_crash_free_run_has_unit_goodput_sans_checkpoints(
            self, tmp_path):
        trainer, iterator = _fresh()
        resilient = ResilientTrainer(trainer, tmp_path, ckpt_interval=0,
                                     step_time_s=1.0)
        report = resilient.train(iterator, self.STEPS)
        assert report.crashes == 0
        assert report.goodput == pytest.approx(1.0)
        assert report.total_wall_s == pytest.approx(self.STEPS)

    def test_straggler_stalls_but_does_not_lose_work(self, tmp_path):
        reference = self._reference_losses()
        trainer, iterator = _fresh()
        resilient = ResilientTrainer(trainer, tmp_path, ckpt_interval=0,
                                     step_time_s=1.0)
        plan = FaultPlan(events=(
            FaultEvent(kind="straggler", time_s=0.0, duration_s=4.0,
                       severity=2.0),))
        report = resilient.train(iterator, self.STEPS, fault_plan=plan)
        assert report.crashes == 0
        assert report.stalled_s > 0
        assert report.losses == reference

    def test_validation(self, tmp_path):
        trainer, iterator = _fresh()
        with pytest.raises(ValueError):
            ResilientTrainer(trainer, tmp_path, ckpt_interval=-1)
        with pytest.raises(ValueError):
            ResilientTrainer(trainer, tmp_path, step_time_s=0.0)
        resilient = ResilientTrainer(trainer, tmp_path)
        with pytest.raises(ValueError):
            resilient.train(iterator, steps=0)

    def test_report_as_dict_excludes_losses(self, tmp_path):
        trainer, iterator = _fresh()
        resilient = ResilientTrainer(trainer, tmp_path, ckpt_interval=4)
        report = resilient.train(iterator, 4)
        snapshot = report.as_dict()
        assert "losses" not in snapshot
        assert snapshot["goodput"] == pytest.approx(report.goodput)


class TestDegradedMode:
    def _plan(self):
        return FaultPlan(events=(
            FaultEvent(kind="crash", time_s=0.01, duration_s=0.02,
                       worker=0),
            FaultEvent(kind="crash", time_s=0.02, duration_s=0.02,
                       worker=1),
        ))

    def test_live_replicas_and_factors(self):
        controller = DegradedModeController(self._plan(), replicas=3)
        assert controller.live_replicas(0.0) == 3
        assert controller.live_replicas(0.015) == 2
        assert controller.live_replicas(0.025) == 1
        assert controller.service_factor(0.025) == pytest.approx(3.0)
        assert controller.budget_factor(0.015) == pytest.approx(2 / 3)

    def test_min_live_floor(self):
        controller = DegradedModeController(self._plan(), replicas=2,
                                            min_live=1)
        # Both replicas down at t=0.025; the floor keeps one serving.
        assert controller.live_replicas(0.025) == 1

    def test_degraded_seconds_merges_overlap(self):
        controller = DegradedModeController(self._plan(), replicas=3)
        # Windows [0.01, 0.03) and [0.02, 0.04) merge to 0.03s.
        assert controller.degraded_seconds() == pytest.approx(0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            DegradedModeController(self._plan(), replicas=0)
        with pytest.raises(ValueError):
            DegradedModeController(self._plan(), replicas=2, min_live=3)

    def test_serve_reports_degraded_summary(self):
        config = ServeConfig(requests=600, rate_qps=20_000.0,
                             replicas=3, fault_plan=FaultPlan.periodic(
                                 crash_rate=100.0, duration_s=0.03,
                                 crash_downtime_s=0.01, workers=3))
        report = serve(config)
        assert report.degraded is not None
        assert report.served + report.shed == config.requests
        assert report.degraded["replicas"] == 3
        assert report.degraded["degraded_batches"] > 0
        assert report.degraded["degraded_seconds"] > 0
        assert report.degraded["min_live_replicas"] < 3

    def test_serve_without_plan_has_no_degraded_summary(self):
        report = serve(ServeConfig(requests=200))
        assert report.degraded is None
        assert "degraded" not in report.as_dict()

    def test_degraded_run_is_deterministic(self):
        config = ServeConfig(requests=400, replicas=2,
                             fault_plan=FaultPlan.periodic(
                                 crash_rate=100.0, duration_s=0.02,
                                 crash_downtime_s=0.005, workers=2))
        assert serve(config).as_dict() == serve(config).as_dict()


class TestFaultToleranceMonitor:
    def _report(self, tmp_path, plan=None):
        trainer, iterator = _fresh()
        resilient = ResilientTrainer(trainer, tmp_path, ckpt_interval=4,
                                     step_time_s=1.0)
        return resilient.train(iterator, 8, fault_plan=plan)

    def test_healthy_run(self, tmp_path):
        report = self._report(tmp_path)
        verdict = FaultToleranceMonitor().analyze(report)
        assert verdict.healthy
        assert verdict.alerts == ()
        assert verdict.summary["crashes"] == 0

    def test_plan_events_surface_as_info_alerts(self, tmp_path):
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", time_s=4.5, duration_s=0.1),))
        report = self._report(tmp_path, plan=plan)
        verdict = FaultToleranceMonitor().analyze(report, plan=plan)
        assert verdict.healthy  # info alerts don't flag the run
        assert [alert.severity for alert in verdict.alerts] == ["info"]
        assert verdict.summary["crashes"] == 1

    def test_low_goodput_warns(self, tmp_path):
        report = self._report(tmp_path)
        verdict = FaultToleranceMonitor(min_goodput=1.0).analyze(report)
        assert not verdict.healthy
        assert any(alert.severity == "warning"
                   for alert in verdict.alerts)

    def test_replay_divergence_is_critical(self, tmp_path):
        report = self._report(tmp_path)
        report.replay_divergence = 1
        verdict = FaultToleranceMonitor().analyze(report)
        assert not verdict.healthy
        assert any(alert.severity == "critical"
                   for alert in verdict.alerts)

    def test_plan_report_summarizes_schedule(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", time_s=1.0, duration_s=0.5),
            FaultEvent(kind="straggler", time_s=2.0, duration_s=1.0,
                       severity=2.0),
        ))
        verdict = plan_report(plan)
        assert verdict.healthy
        assert verdict.summary["events"] == 2
        assert verdict.summary["crash_events"] == 1
        assert verdict.summary["straggler_events"] == 1
        assert verdict.summary["last_event_end_s"] == pytest.approx(3.0)
        assert len(verdict.alerts) == 2
