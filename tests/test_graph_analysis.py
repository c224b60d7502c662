"""Tests for static graph analysis (critical path, bottlenecks)."""

import pytest

from repro.graph import Graph, Op, OpKind
from repro.graph.analysis import (
    bottleneck_report,
    critical_path_seconds,
    dominant_resource,
    iteration_time_lower_bound,
    op_duration_lower_bound,
    resource_work_summary,
)
from repro.sim.resource import Phase, ResourceKind

CAPACITIES = {
    ResourceKind.GPU_SM: 100.0,
    ResourceKind.NET: 10.0,
    ResourceKind.LAUNCH: 1.0,
}


def _op(name, kind, resource, work, micro=0):
    return Op(name=name, kind=kind,
              phases=[Phase(resource, work)], micro_ops=micro)


def _two_stage_graph():
    graph = Graph()
    comm = graph.add(_op("comm", OpKind.SHUFFLE, ResourceKind.NET, 50.0))
    compute = graph.add(_op("compute", OpKind.MLP,
                            ResourceKind.GPU_SM, 200.0))
    graph.add_edge(comm, compute)
    return graph


class TestOpDuration:
    def test_phase_time(self):
        op = _op("x", OpKind.MLP, ResourceKind.GPU_SM, 200.0)
        assert op_duration_lower_bound(op, CAPACITIES, 0.0) \
            == pytest.approx(2.0)

    def test_launch_cost_added(self):
        op = _op("x", OpKind.MLP, ResourceKind.GPU_SM, 0.0, micro=100)
        assert op_duration_lower_bound(op, CAPACITIES, 1e-3) \
            == pytest.approx(0.1)

    def test_max_rate_respected(self):
        op = Op(name="x", kind=OpKind.MLP,
                phases=[Phase(ResourceKind.GPU_SM, 200.0, max_rate=50.0)])
        assert op_duration_lower_bound(op, CAPACITIES, 0.0) \
            == pytest.approx(4.0)


class TestSummaries:
    def test_resource_work_summary(self):
        summary = resource_work_summary(_two_stage_graph(), CAPACITIES)
        assert summary[ResourceKind.NET]["work"] == 50.0
        assert summary[ResourceKind.NET]["seconds"] == pytest.approx(5.0)
        assert summary[ResourceKind.GPU_SM]["seconds"] \
            == pytest.approx(2.0)

    def test_dominant_resource(self):
        kind, seconds = dominant_resource(_two_stage_graph(), CAPACITIES)
        assert kind is ResourceKind.NET
        assert seconds == pytest.approx(5.0)

    def test_launch_can_dominate(self):
        graph = Graph()
        graph.add(_op("tiny", OpKind.MLP, ResourceKind.GPU_SM, 1.0,
                      micro=1_000_000))
        kind, seconds = dominant_resource(graph, CAPACITIES,
                                          launch_seconds_per_micro_op=1e-4)
        assert kind is ResourceKind.LAUNCH
        assert seconds == pytest.approx(100.0)


class TestCriticalPath:
    def test_chain_sums(self):
        assert critical_path_seconds(_two_stage_graph(), CAPACITIES) \
            == pytest.approx(7.0)

    def test_parallel_branches_take_max(self):
        graph = Graph()
        source = graph.add(_op("s", OpKind.MLP, ResourceKind.GPU_SM,
                               100.0))
        short = graph.add(_op("short", OpKind.MLP, ResourceKind.GPU_SM,
                              100.0))
        long_op = graph.add(_op("long", OpKind.MLP, ResourceKind.GPU_SM,
                                500.0))
        graph.add_edge(source, short)
        graph.add_edge(source, long_op)
        assert critical_path_seconds(graph, CAPACITIES) \
            == pytest.approx(6.0)

    def test_lower_bound_is_max_of_bounds(self):
        graph = _two_stage_graph()
        bound = iteration_time_lower_bound(graph, CAPACITIES)
        assert bound == pytest.approx(7.0)  # chain > any resource alone

    def test_simulation_respects_lower_bound(self):
        """The engine can never beat the analytic bound."""
        from repro.sim import Engine, Resource
        graph = _two_stage_graph()
        bound = iteration_time_lower_bound(graph, CAPACITIES)
        resources = {
            kind: Resource(kind, capacity)
            for kind, capacity in CAPACITIES.items()
        }
        result = Engine(resources).run(graph.to_task_table(0.0))
        assert result.makespan >= bound - 1e-9


class TestReport:
    def test_report_fields(self):
        report = bottleneck_report(_two_stage_graph(), CAPACITIES)
        assert report["dominant_resource"] == "net"
        assert report["lower_bound_seconds"] == pytest.approx(7.0)
        assert "gpu_sm" in report["per_resource_seconds"]

    def test_report_on_builder_graph(self):
        from repro.data import criteo
        from repro.graph import (ExecutionPlan, IterationGraphBuilder,
                                 groups_per_field)
        from repro.hardware import eflops_cluster
        from repro.models import dlrm
        from repro.sim.engine import build_node_resources
        model = dlrm(criteo(0.001))
        plan = ExecutionPlan(model=model, cluster=eflops_cluster(4),
                             batch_size=1024, strategy="mp",
                             groups=groups_per_field(model.dataset))
        graph = IterationGraphBuilder(plan).build(1)
        resources = build_node_resources(plan.cluster.node)
        capacities = {kind: res.capacity
                      for kind, res in resources.items()}
        report = bottleneck_report(
            graph, capacities,
            launch_seconds_per_micro_op=plan.cost.launch_per_micro_op)
        assert report["lower_bound_seconds"] > 0
