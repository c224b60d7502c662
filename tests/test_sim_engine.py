"""Unit tests for the discrete-event engine."""

import pytest

from repro.core import PicassoConfig, PicassoExecutor
from repro.core.executor import simulate_plan
from repro.data import criteo, product2
from repro.graph.builder import (
    ExecutionPlan,
    IterationGraphBuilder,
    groups_per_field,
)
from repro.hardware import EFLOPS_NODE, GN6E_NODE, eflops_cluster
from repro.models import can, dlrm
from repro.sim import Engine, Phase, Resource, ResourceKind, SimTask
from repro.sim.engine import _MIN_SLOTS, build_node_resources


def _engine(**capacities):
    resources = {
        kind: Resource(kind, capacity=capacity)
        for kind, capacity in capacities.items()
    }
    return Engine(resources)


class TestBasicExecution:
    def test_single_task_duration(self):
        engine = _engine(**{ResourceKind.NET: 10.0})
        task = SimTask("t", [Phase(ResourceKind.NET, 100.0)])
        result = engine.run([task])
        assert result.makespan == pytest.approx(10.0)

    def test_max_rate_limits_single_task(self):
        engine = _engine(**{ResourceKind.NET: 10.0})
        task = SimTask("t", [Phase(ResourceKind.NET, 100.0, max_rate=2.0)])
        result = engine.run([task])
        assert result.makespan == pytest.approx(50.0)

    def test_processor_sharing_two_tasks(self):
        engine = _engine(**{ResourceKind.NET: 10.0})
        tasks = [SimTask(f"t{i}", [Phase(ResourceKind.NET, 50.0)])
                 for i in range(2)]
        result = engine.run(tasks)
        # Two tasks share 10 units/s: both finish at t=10.
        assert result.makespan == pytest.approx(10.0)

    def test_sequential_phases(self):
        engine = _engine(**{ResourceKind.NET: 10.0,
                            ResourceKind.GPU_SM: 5.0})
        task = SimTask("t", [Phase(ResourceKind.NET, 100.0),
                             Phase(ResourceKind.GPU_SM, 50.0)])
        result = engine.run([task])
        assert result.makespan == pytest.approx(10.0 + 10.0)

    def test_zero_phase_tasks_complete(self):
        engine = _engine(**{ResourceKind.NET: 10.0})
        result = engine.run([SimTask("empty", [])])
        assert result.makespan == 0.0
        assert result.task_count == 1

    def test_zero_work_phase_skipped(self):
        engine = _engine(**{ResourceKind.NET: 10.0})
        task = SimTask("t", [Phase(ResourceKind.NET, 0.0),
                             Phase(ResourceKind.NET, 10.0)])
        result = engine.run([task])
        assert result.makespan == pytest.approx(1.0)


class TestDependencies:
    def test_chain_serializes(self):
        engine = _engine(**{ResourceKind.NET: 10.0})
        first = SimTask("a", [Phase(ResourceKind.NET, 50.0)])
        second = SimTask("b", [Phase(ResourceKind.NET, 50.0)])
        second.depends_on(first)
        result = engine.run([first, second])
        assert result.makespan == pytest.approx(10.0)

    def test_diamond(self):
        engine = _engine(**{ResourceKind.NET: 10.0})
        a = SimTask("a", [Phase(ResourceKind.NET, 10.0)])
        b = SimTask("b", [Phase(ResourceKind.NET, 10.0)])
        c = SimTask("c", [Phase(ResourceKind.NET, 10.0)])
        d = SimTask("d", [Phase(ResourceKind.NET, 10.0)])
        b.depends_on(a)
        c.depends_on(a)
        d.depends_on(b)
        d.depends_on(c)
        result = engine.run([a, b, c, d], keep_finish_times=True)
        # a: 1s; b,c share: 2s; d: 1s => 4s total.
        assert result.makespan == pytest.approx(4.0)
        assert result.finish_times["d"] == pytest.approx(4.0)

    def test_cycle_detection(self):
        engine = _engine(**{ResourceKind.NET: 10.0})
        a = SimTask("a", [Phase(ResourceKind.NET, 10.0)])
        b = SimTask("b", [Phase(ResourceKind.NET, 10.0)])
        a.depends_on(b)
        b.depends_on(a)
        with pytest.raises(RuntimeError):
            engine.run([a, b])

    def test_zero_work_dependency_chain(self):
        engine = _engine(**{ResourceKind.NET: 10.0})
        tasks = [SimTask(f"c{i}", []) for i in range(5)]
        for before, after in zip(tasks[:-1], tasks[1:]):
            after.depends_on(before)
        tail = SimTask("tail", [Phase(ResourceKind.NET, 10.0)])
        tail.depends_on(tasks[-1])
        result = engine.run([*tasks, tail])
        assert result.makespan == pytest.approx(1.0)

    def test_long_zero_work_chain_completes(self):
        # Zero-work completions are walked on an explicit stack, so a
        # chain far deeper than the interpreter's recursion limit runs.
        engine = _engine(**{ResourceKind.NET: 10.0})
        tasks = [SimTask(f"c{i}", []) for i in range(5_000)]
        for before, after in zip(tasks[:-1], tasks[1:]):
            after.depends_on(before)
        result = engine.run(tasks, keep_finish_times=True)
        assert result.makespan == 0.0
        assert result.task_count == 5_000
        assert len(result.finish_times) == 5_000


class TestSlots:
    def test_single_slot_serializes(self):
        resources = {ResourceKind.LAUNCH: Resource(
            ResourceKind.LAUNCH, capacity=1.0, slots=1)}
        tasks = [SimTask(f"t{i}", [Phase(ResourceKind.LAUNCH, 1.0,
                                         max_rate=1.0)])
                 for i in range(3)]
        result = Engine(resources).run(tasks)
        assert result.makespan == pytest.approx(3.0)

    def test_multi_slot_parallelizes(self):
        resources = {ResourceKind.LAUNCH: Resource(
            ResourceKind.LAUNCH, capacity=3.0, slots=3)}
        tasks = [SimTask(f"t{i}", [Phase(ResourceKind.LAUNCH, 1.0,
                                         max_rate=1.0)])
                 for i in range(3)]
        result = Engine(resources).run(tasks)
        assert result.makespan == pytest.approx(1.0)

    def test_queue_preserves_fifo(self):
        resources = {ResourceKind.LAUNCH: Resource(
            ResourceKind.LAUNCH, capacity=1.0, slots=1)}
        tasks = [SimTask(f"t{i}", [Phase(ResourceKind.LAUNCH, 1.0,
                                         max_rate=1.0)])
                 for i in range(4)]
        result = Engine(resources).run(tasks, keep_finish_times=True)
        finishes = [result.finish_times[f"t{i}"] for i in range(4)]
        assert finishes == sorted(finishes)


class TestResultMetrics:
    def test_busy_fraction(self):
        engine = _engine(**{ResourceKind.NET: 10.0,
                            ResourceKind.GPU_SM: 10.0})
        task = SimTask("t", [Phase(ResourceKind.NET, 50.0),
                             Phase(ResourceKind.GPU_SM, 50.0)])
        result = engine.run([task])
        assert result.busy_fraction(ResourceKind.NET) \
            == pytest.approx(0.5)

    def test_mean_rate(self):
        engine = _engine(**{ResourceKind.NET: 10.0})
        task = SimTask("t", [Phase(ResourceKind.NET, 100.0)])
        result = engine.run([task])
        assert result.mean_rate(ResourceKind.NET) == pytest.approx(10.0)

    def test_missing_task_error(self):
        engine = _engine(**{ResourceKind.NET: 10.0})
        orphan = SimTask("o", [Phase(ResourceKind.NET, 1.0)])
        orphan.indegree = 1  # dependency that never resolves
        with pytest.raises(RuntimeError):
            engine.run([orphan])


class TestNodeResources:
    def test_eflops_resources(self):
        resources = build_node_resources(EFLOPS_NODE)
        assert ResourceKind.NVLINK not in resources
        assert resources[ResourceKind.GPU_SM].capacity \
            == EFLOPS_NODE.gpu.fp32_flops

    def test_gn6e_shares_host_resources(self):
        resources = build_node_resources(GN6E_NODE)
        assert ResourceKind.NVLINK in resources
        assert resources[ResourceKind.DRAM].capacity \
            == pytest.approx(GN6E_NODE.dram.bandwidth / 8)

    def test_launch_capacity_scales_with_slots(self):
        resources = build_node_resources(EFLOPS_NODE, launch_slots=8)
        assert resources[ResourceKind.LAUNCH].capacity == 8.0
        assert resources[ResourceKind.LAUNCH].slots == 8

    def test_net_efficiency_applied(self):
        full = build_node_resources(EFLOPS_NODE, net_efficiency=1.0)
        derated = build_node_resources(EFLOPS_NODE, net_efficiency=0.5)
        assert derated[ResourceKind.NET].capacity \
            == pytest.approx(full[ResourceKind.NET].capacity / 2)

    def test_engine_reusable_across_runs(self):
        resources = build_node_resources(EFLOPS_NODE)
        engine = Engine(resources)
        for _round in range(2):
            task = SimTask("t", [Phase(ResourceKind.GPU_SM, 1e9)])
            result = engine.run([task])
            assert result.makespan > 0


class TestEngineCounters:
    def test_rebuilds_and_peak_occupancy(self):
        engine = _engine(**{ResourceKind.NET: 10.0,
                            ResourceKind.GPU_SM: 5.0,
                            ResourceKind.CPU: 1.0})
        a, b, c = (SimTask(name, [Phase(ResourceKind.NET, work)])
                   for name, work in (("a", 10.0), ("b", 20.0),
                                      ("c", 30.0)))
        d = SimTask("d", [Phase(ResourceKind.GPU_SM, 5.0)])
        d.depends_on(a)
        result = engine.run([a, b, c, d])
        # NET is filled for {a,b,c} at t=0, for {b,c} once a finishes
        # at t=3 (with GPU for {d}), and for {c} once b finishes at
        # t=5; d leaving GPU at t=4 empties the lane without a refill.
        assert result.lane_rebuilds == 4
        assert result.peak_occupancy == {"net": 3, "gpu_sm": 1, "cpu": 0}
        assert result.makespan == pytest.approx(6.0)

    def test_swept_slots_narrow_window(self):
        engine = _engine(**{ResourceKind.NET: 10.0})
        result = engine.run([SimTask(f"t{i}", [Phase(ResourceKind.NET,
                                                     1.0 + i)])
                             for i in range(3)])
        assert result.event_count == 3
        assert result.swept_slots == _MIN_SLOTS * 3

    def test_swept_slots_follow_the_window(self):
        # 100 tasks share one lane from t=0 and finish one per event,
        # shortest first.  The 65th admission doubles the window to
        # 128; once the 68th completion leaves 32 occupants (a quarter
        # of 128), it halves back to 64 for the last 32 events.
        engine = _engine(**{ResourceKind.NET: 10.0})
        result = engine.run([SimTask(f"t{i}", [Phase(ResourceKind.NET,
                                                     1.0 + i)])
                             for i in range(100)])
        assert result.event_count == 100
        assert result.peak_occupancy == {"net": 100}
        assert result.swept_slots == 68 * 128 + 32 * 64

    def test_peak_occupancy_counts_slots_not_queue(self):
        resources = {ResourceKind.LAUNCH: Resource(
            ResourceKind.LAUNCH, capacity=2.0, slots=2)}
        tasks = [SimTask(f"q{i}", [Phase(ResourceKind.LAUNCH, 1.0)])
                 for i in range(5)]
        result = Engine(resources).run(tasks)
        assert result.peak_occupancy == {"launch": 2}

    def test_counters_stay_out_of_the_summary(self):
        engine = _engine(**{ResourceKind.NET: 10.0})
        summary = engine.run(
            [SimTask("t", [Phase(ResourceKind.NET, 1.0)])]).summary()
        assert set(summary.as_dict()) == {
            "makespan", "task_count", "event_count", "busy_seconds",
            "work_done"}


class TestMemory:
    def test_warm_run_leaves_no_cyclic_garbage(self):
        # A run's lanes, traces and records must be freed by reference
        # counting alone, not left for a generation-2 collection.
        import gc

        from repro.api import RunConfig, run

        config = RunConfig(model="W&D", dataset="Product-1",
                           cluster="eflops:2", batch_size=20_000,
                           iterations=20)
        run(config)
        gc.collect()
        gc.disable()
        try:
            run(config)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDesignAblations:
    """The cost-model mechanisms the reproduction's conclusions rest on.

    Not paper tables: a regression here warns that a headline
    reproduction may have lost its explanatory mechanism (DESIGN.md
    SS5).
    """

    def test_launch_slots_sensitivity(self):
        """Fragmentary graphs speed up with dispatch parallelism."""
        model = dlrm(criteo(0.01))
        cluster = eflops_cluster(4)
        plan = ExecutionPlan(model=model, cluster=cluster,
                             batch_size=4096, strategy="mp",
                             groups=groups_per_field(model.dataset))
        table = IterationGraphBuilder(plan).build(2).to_task_table(
            plan.cost.launch_per_micro_op)
        makespan = {
            slots: Engine(build_node_resources(
                cluster.node, launch_slots=slots)).run(table).makespan
            for slots in (1, 4)}
        assert makespan[1] > makespan[4]

    def test_fine_grained_deps_matter(self):
        """Removing the global concat barrier must help (or not hurt)."""
        executor = PicassoExecutor(
            can(product2(0.02)), eflops_cluster(8),
            PicassoConfig(micro_batches=1, interleave_sets=3))
        ips = {}
        for fine in (False, True):
            plan = executor.plan(8192)
            plan.fine_grained_deps = fine
            ips[fine] = round(simulate_plan(plan, iterations=2).ips)
        assert ips[True] >= ips[False] * 0.95

    def test_pipeline_overlap_is_real(self):
        """With interleaving, comm must overlap compute (low exposure)."""
        model = can(product2(0.02))
        cluster = eflops_cluster(8)
        exposed = {
            name: round(PicassoExecutor(model, cluster, config).run(
                8192, iterations=2).breakdown["communication"]["exposed"]
                * 100, 1)
            for name, config in (
                ("interleaved", PicassoConfig()),
                ("flat", PicassoConfig().without("interleaving")))}
        assert exposed["interleaved"] <= exposed["flat"] + 2.0
