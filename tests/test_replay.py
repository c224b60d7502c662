"""Tests for trace-driven what-if replay (repro.replay + FrozenTrace).

The load-bearing contract: an unperturbed replay of a recorded run
reproduces the engine's schedule *exactly* (float equality, record for
record), and a per-class perturbation moves only the perturbed class's
execution seconds.  Both are what lets the auto-tuner trust replay
predictions enough to spend real runs only on the top candidates.
"""

import json

import pytest

from repro.api import RunConfig, run
from repro.bench.suite import bench_replay
from repro.replay import WAIT_MODELS, CostHooks, TraceReplayer
from repro.sim import FrozenTrace, TaskRecord
from repro.telemetry import analyze_critical_path

BASE = RunConfig(model="W&D", dataset="Product-1", scale=0.05,
                 cluster="eflops:2", batch_size=4_000, iterations=2,
                 record_tasks=True)


@pytest.fixture(scope="module")
def base_run():
    report = run(BASE)
    return report.result.makespan, tuple(report.result.task_records)


class TestUnperturbedReplay:
    def test_makespan_is_exact(self, base_run):
        makespan, records = base_run
        result = TraceReplayer(records, makespan=makespan).replay()
        assert result.makespan == makespan  # float-exact, not approx
        assert result.makespan_ratio == 1.0

    def test_records_are_reused_verbatim(self, base_run):
        makespan, records = base_run
        result = TraceReplayer(records, makespan=makespan).replay()
        assert len(result.records) == len(records)
        assert all(replayed is original
                   for replayed, original
                   in zip(result.records, records))

    def test_class_seconds_are_exact(self, base_run):
        makespan, records = base_run
        result = TraceReplayer(records, makespan=makespan).replay()
        base_report = analyze_critical_path(list(records), makespan)
        assert result.critical_path().class_seconds \
            == base_report.class_seconds


class TestPerturbedReplay:
    def test_launch_scale_moves_only_launch_class(self, base_run):
        makespan, records = base_run
        replayer = TraceReplayer(records, makespan=makespan)
        base_exec = replayer.replay().class_exec_seconds()
        half = replayer.replay(CostHooks(launch=0.5))
        exec_seconds = half.class_exec_seconds()
        assert exec_seconds["launch"] == pytest.approx(
            0.5 * base_exec["launch"], rel=1e-9)
        for name in ("compute", "memory", "communication"):
            assert exec_seconds[name] == pytest.approx(
                base_exec[name], rel=1e-9)

    def test_halving_launch_shortens_the_run(self, base_run):
        makespan, records = base_run
        result = TraceReplayer(records, makespan=makespan).replay(
            CostHooks(launch=0.5))
        # Launch-bound enough to feel it, but never below half.
        assert 0.5 <= result.makespan_ratio < 1.0

    def test_growth_never_shortens(self, base_run):
        makespan, records = base_run
        result = TraceReplayer(records, makespan=makespan).replay(
            CostHooks(communication=2.0))
        assert result.makespan >= makespan


class TestSyntheticRetime:
    """Hand-built two-task DAG with arithmetic we can do on paper."""

    def _records(self):
        # a: 1s of compute from t=0.  b: waits for a, queues 0.5s,
        # then 1s of compute.  Makespan 2.5s.
        a = TaskRecord(name="a", start=0.0, end=1.0,
                       segments=(("gpu_sm", 0.0, 1.0),))
        b = TaskRecord(name="b", start=1.0, end=2.5, preds=("a",),
                       segments=(("gpu_sm", 1.5, 2.5),))
        return (a, b)

    def test_scaled_wait_model(self):
        replayer = TraceReplayer(self._records())
        result = replayer.replay(
            CostHooks(compute=2.0, wait_model="scaled"))
        # a: 2s.  b: ready 2.0, wait 0.5*2, exec 1*2 -> end 5.0.
        assert result.finish("a") == 2.0
        assert result.makespan == 5.0

    def test_frozen_wait_model(self):
        replayer = TraceReplayer(self._records())
        result = replayer.replay(
            CostHooks(compute=2.0, wait_model="frozen"))
        # b: ready 2.0, wait stays 0.5, exec 2 -> end 4.5.
        assert result.makespan == 4.5

    def test_congestion_does_not_credit_shrink(self):
        replayer = TraceReplayer(self._records())
        result = replayer.replay(CostHooks(compute=0.5))
        # a: 0.5s.  b: ready 0.5, wait stays 0.5 (max(1, 0.5) = 1),
        # exec 0.5 -> end 1.5.
        assert result.finish("a") == 0.5
        assert result.makespan == 1.5

    def test_kind_override_beats_class_scale(self):
        replayer = TraceReplayer(self._records())
        hooks = CostHooks(compute=3.0,
                          kind_overrides=(("gpu_sm", 1.0),))
        assert replayer.replay(hooks).makespan == 2.5


class TestReplayerValidation:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            TraceReplayer(())

    def test_topological_order_enforced(self):
        late = TaskRecord(name="b", start=1.0, end=2.0, preds=("a",))
        early = TaskRecord(name="a", start=0.0, end=1.0)
        with pytest.raises(ValueError,
                           match="not topologically ordered"):
            TraceReplayer((late, early))

    def test_external_preds_are_ignored(self):
        only = TaskRecord(name="b", start=0.0, end=1.0,
                          preds=("outside",))
        assert TraceReplayer((only,)).replay().makespan == 1.0


class TestCostHooks:
    def test_scale_validation(self):
        with pytest.raises(ValueError):
            CostHooks(compute=0.0)
        with pytest.raises(ValueError):
            CostHooks(launch=-1.0)
        with pytest.raises(ValueError):
            CostHooks(kind_overrides=(("gpu_sm", 0.0),))

    def test_unknown_kind_and_wait_model_rejected(self):
        with pytest.raises(ValueError, match="unknown resource kind"):
            CostHooks(kind_overrides=(("tpu", 2.0),))
        with pytest.raises(ValueError, match="unknown wait_model"):
            CostHooks(wait_model="psychic")
        assert "congestion" in WAIT_MODELS

    def test_from_class_scales(self):
        hooks = CostHooks.from_class_scales({"launch": 0.5})
        assert hooks.launch == 0.5 and hooks.compute == 1.0
        with pytest.raises(ValueError, match="unknown resource class"):
            CostHooks.from_class_scales({"quantum": 2.0})

    def test_from_kind_scales_and_precedence(self):
        hooks = CostHooks.from_kind_scales({"hbm": 2.0})
        assert hooks.scale_for("hbm") == 2.0
        assert hooks.scale_for("dram") == 1.0  # class default
        assert not hooks.identity
        assert CostHooks().identity
        assert set(hooks.table()) >= {"gpu_sm", "hbm", "launch", "net"}


class TestFrozenTrace:
    def test_save_load_round_trip(self, tmp_path):
        records = (TaskRecord(name="a", start=0.0, end=1.0,
                              tags={"kind": "op"},
                              segments=(("gpu_sm", 0.0, 1.0),)),)
        trace = FrozenTrace(records=records, makespan=1.0,
                            metadata={"workload": "unit"})
        path = trace.save(str(tmp_path / "trace.json"))
        loaded = FrozenTrace.load(path)
        assert loaded == trace
        assert len(loaded) == 1

    def test_dumps_is_byte_deterministic(self):
        records = (TaskRecord(name="a", start=0.0, end=1.0),)
        first = FrozenTrace(records=records, makespan=1.0,
                            metadata={"b": 2, "a": 1})
        second = FrozenTrace(
            records=(TaskRecord.from_dict(records[0].as_dict()),),
            makespan=1.0, metadata={"a": 1, "b": 2})
        assert first.dumps() == second.dumps()
        assert first.dumps().endswith("\n")
        assert json.loads(first.dumps())["schema_version"] == 1

    def test_schema_version_rejected(self):
        payload = FrozenTrace(
            records=(TaskRecord(name="a", start=0.0, end=1.0),),
            makespan=1.0).as_dict()
        payload["schema_version"] = 999
        with pytest.raises(ValueError, match="schema"):
            FrozenTrace.from_dict(payload)

    def test_replayer_from_trace(self, base_run):
        makespan, records = base_run
        trace = FrozenTrace(records=records, makespan=makespan)
        replayer = TraceReplayer.from_trace(trace)
        assert replayer.makespan == makespan
        assert replayer.replay().makespan == makespan


class TestReplayBenchContract:
    """The ``replay`` bench scenario: fidelity plus tuner quality."""

    def test_replay_fidelity_and_tuner(self):
        metrics = bench_replay().metrics
        # The replayer's foundation: re-deriving the frozen DAG under
        # identity hooks lands on the engine's makespan to the bit.
        assert metrics["replay_exact"] == 1.0
        assert metrics["replay_makespan_s"] == metrics["makespan_s"]
        # Halving launch costs must shorten the run (this workload is
        # launch-bound enough to feel it) but never below half.
        assert 0.5 <= metrics["launch_half_ratio"] < 1.0
        # The acceptance bar: a real >= 10% winner, predicted within 15%.
        assert metrics["tuned_improved"] == 1.0
        assert metrics["tuned_gain"] >= 0.10
        assert abs(metrics["tuned_fidelity_error"]) <= 0.15
