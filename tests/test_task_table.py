"""The compiled :class:`~repro.sim.engine.TaskTable` and its cache.

A table is the engine's only input format: immutable, reusable across
runs, and cheap for the garbage collector to hold.  These tests pin the
compile (field for field against ``SimTask`` objects built by the
independent :func:`oracle_sim_tasks`), the engine's promise never to
write to its input, the compile cache's sharing, and the collector
footprint of a cached table.
"""

import dataclasses
import gc

import pytest

from repro.api import RunConfig
from repro.baselines import framework_by_name
from repro.core.config import PicassoConfig
from repro.core.executor import compile_plan, launch_costs
from repro.core.planner import PicassoPlanner
from repro.data import product2
from repro.graph.builder import IterationGraphBuilder
from repro.hardware import eflops_cluster
from repro.models import can
from repro.sim import Engine, Phase, Resource, ResourceKind, SimTask
from repro.sim import TaskTable
from tests.test_engine_equivalence import (
    _assert_bitwise_equal,
    oracle_sim_tasks,
)


def _narrow_plan():
    config = RunConfig(model="W&D", dataset="Product-1", scale=0.05,
                       cluster="eflops:2", batch_size=4000, iterations=2)
    planner = PicassoPlanner(config.picasso or PicassoConfig())
    return planner.plan(config.build_model(), config.resolved_cluster(),
                        4000), 2


def _wide_plan():
    model = can(product2(0.01).replicated(2))
    return framework_by_name("TF-PS").plan(model, eflops_cluster(2),
                                           2000), 1


PLANS = {"narrow_wd": _narrow_plan, "wide_can": _wide_plan}


def _resources():
    return {
        ResourceKind.NET: Resource(ResourceKind.NET, capacity=10.0),
        ResourceKind.GPU_SM: Resource(ResourceKind.GPU_SM, capacity=7.0),
        ResourceKind.LAUNCH: Resource(ResourceKind.LAUNCH, capacity=2.0,
                                      slots=2),
    }


def _tracked_reachable(root) -> int:
    """GC-tracked objects reachable from ``root``, classes excluded."""
    seen = set()
    stack = [root]
    tracked = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        tracked += gc.is_tracked(obj)
        stack.extend(gc.get_referents(obj))
    return tracked


class TestCompile:
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_graph_table_matches_oracle_tasks(self, name):
        plan, iterations = PLANS[name]()
        graph = IterationGraphBuilder(plan).build(iterations)
        launch = launch_costs(plan, graph.total_micro_ops / iterations)
        table = graph.to_task_table(*launch)
        oracle = TaskTable.from_tasks(oracle_sim_tasks(graph, *launch))
        assert table.names == oracle.names
        assert table.phases == oracle.phases
        assert table.succs == oracle.succs
        assert table.indegree == oracle.indegree
        assert table.tags == oracle.tags
        assert table == oracle
        assert compile_plan(plan, iterations)[1] == oracle

    def test_successor_order_is_graph_order_not_edge_order(self):
        # Edge insertion order differs from graph order on real plans;
        # the table must follow graph order, as the oracle does.
        plan, iterations = _narrow_plan()
        graph = IterationGraphBuilder(plan).build(iterations)
        index = {op.name: tid for tid, op in enumerate(graph.ops)}
        table = graph.to_task_table(1e-6)
        by_edge = tuple(tuple(index[succ.name]
                              for succ in graph.successors(op))
                        for op in graph.ops)
        assert by_edge != table.succs
        assert [sorted(row) for row in by_edge] \
            == [sorted(row) for row in table.succs]

    def test_table_is_immutable(self):
        table = TaskTable.from_tasks([SimTask("a", [])])
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.names = ("b",)


class TestEngineInput:
    def _diamond(self):
        a = SimTask("a", [Phase(ResourceKind.NET, 10.0)])
        b = SimTask("b", [Phase(ResourceKind.GPU_SM, 0.0),
                          Phase(ResourceKind.GPU_SM, 21.0)],
                    tags={"layer": "mlp"})
        c = SimTask("c", [Phase(ResourceKind.LAUNCH, 1.0),
                          Phase(ResourceKind.NET, 8.0, max_rate=2.0)])
        d = SimTask("d", [])
        b.depends_on(a)
        c.depends_on(a)
        d.depends_on(b)
        d.depends_on(c)
        return [a, b, c, d]

    def test_one_table_run_twice_is_equal(self):
        table = TaskTable.from_tasks(self._diamond())
        runs = [Engine(_resources()).run(table, keep_finish_times=True,
                                         record_tasks=True)
                for _ in range(2)]
        _assert_bitwise_equal(*runs)
        assert runs[0].task_records == runs[1].task_records

    def test_compiled_plan_run_twice_is_equal(self):
        plan, iterations = _narrow_plan()
        runs = []
        for _ in range(2):
            _summary, table, resources = compile_plan(plan, iterations)
            runs.append(Engine(resources).run(
                table, keep_finish_times=True, record_tasks=True))
        _assert_bitwise_equal(*runs)

    def test_sim_task_list_unchanged_by_run(self):
        tasks = self._diamond()

        def state():
            return [(task.indegree, task._phase_index, task.remaining,
                     task.start_time, task.finish_time, list(task.phases),
                     [succ.name for succ in task.succs], dict(task.tags))
                    for task in tasks]

        before = state()
        result = Engine(_resources()).run(tasks, keep_finish_times=True,
                                          record_tasks=True)
        assert result.finish_times["d"] > 0.0
        assert state() == before

    def test_missing_successor_names_both_tasks(self):
        a = SimTask("a", [Phase(ResourceKind.NET, 1.0)])
        b = SimTask("b", [Phase(ResourceKind.NET, 1.0)])
        b.depends_on(a)
        message = "'b' depends on 'a' but is not in the task list"
        with pytest.raises(ValueError, match=message):
            TaskTable.from_tasks([a])
        for record_tasks in (False, True):
            with pytest.raises(ValueError, match=message):
                Engine(_resources()).run([a], record_tasks=record_tasks)


class TestCompileCache:
    def test_hit_returns_the_same_table(self):
        plan, iterations = _narrow_plan()
        summary, table, resources = compile_plan(plan, iterations)
        again, same, fresh = compile_plan(plan, iterations)
        assert same is table
        assert again is summary
        assert fresh is not resources
        assert summary.op_count == len(table)

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_cached_table_is_nearly_invisible_to_gc(self, name):
        plan, iterations = PLANS[name]()
        _summary, table, _resources = compile_plan(plan, iterations)
        assert len(table) > 400
        gc.collect()
        gc.collect()
        assert _tracked_reachable(table) < 10
