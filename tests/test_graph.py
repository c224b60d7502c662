"""Unit tests for the operator DAG container and op vocabulary."""

import pytest

from repro.graph import Graph, Op, OpKind, efficiency_capped_rate
from repro.graph.op import kernel_group
from repro.sim.resource import Phase, ResourceKind


def _op(name, kind=OpKind.MLP, work=100.0, micro=3):
    return Op(name=name, kind=kind,
              phases=[Phase(ResourceKind.GPU_SM, work)], micro_ops=micro)


class TestOp:
    def test_micro_ops_validation(self):
        with pytest.raises(ValueError):
            Op(name="x", kind=OpKind.MLP, phases=[], micro_ops=-1)

    def test_total_work(self):
        op = Op(name="x", kind=OpKind.MLP, phases=[
            Phase(ResourceKind.GPU_SM, 10.0),
            Phase(ResourceKind.HBM, 5.0),
            Phase(ResourceKind.GPU_SM, 2.0),
        ])
        assert op.total_work(ResourceKind.GPU_SM) == 12.0
        assert op.total_work(ResourceKind.NET) == 0.0

    def test_kernel_groups(self):
        assert kernel_group(OpKind.GATHER) == "memory"
        assert kernel_group(OpKind.SHUFFLE) == "communication"
        assert kernel_group(OpKind.MLP) == "compute"
        assert kernel_group(OpKind.CONTROL) == "control"

    def test_fused_ops_stay_in_their_group(self):
        # K-Packing only fuses within a group: the fusions must live in
        # the same group as their constituents.
        assert kernel_group(OpKind.UNIQUE_PARTITION) \
            == kernel_group(OpKind.UNIQUE)
        assert kernel_group(OpKind.SHUFFLE_STITCH) \
            == kernel_group(OpKind.SHUFFLE)

    def test_group_property(self):
        assert _op("x", kind=OpKind.GATHER).group == "memory"


class TestEfficiencyCap:
    def test_large_kernel_reaches_capacity(self):
        assert efficiency_capped_rate(100.0, 1e9, 1e6) == 100.0

    def test_small_kernel_proportional(self):
        assert efficiency_capped_rate(100.0, 5e5, 1e6) \
            == pytest.approx(50.0)

    def test_floor(self):
        assert efficiency_capped_rate(100.0, 1.0, 1e9) \
            == pytest.approx(8.0)

    def test_zero_work(self):
        assert efficiency_capped_rate(100.0, 0.0, 1e6) == 100.0


class TestGraph:
    def test_duplicate_names_rejected(self):
        graph = Graph()
        graph.add(_op("a"))
        with pytest.raises(ValueError):
            graph.add(_op("a"))

    def test_self_edge_rejected(self):
        graph = Graph()
        op = graph.add(_op("a"))
        with pytest.raises(ValueError):
            graph.add_edge(op, op)

    def test_edge_requires_membership(self):
        graph = Graph()
        inside = graph.add(_op("a"))
        outside = _op("b")
        with pytest.raises(KeyError):
            graph.add_edge(inside, outside)

    def test_topological_order(self):
        graph = Graph()
        a = graph.add(_op("a"))
        b = graph.add(_op("b"))
        c = graph.add(_op("c"))
        graph.add_edge(a, b)
        graph.add_edge(b, c)
        order = [op.name for op in graph.topological_order()]
        assert order.index("a") < order.index("b") < order.index("c")

    def test_cycle_detection(self):
        graph = Graph()
        a = graph.add(_op("a"))
        b = graph.add(_op("b"))
        graph.add_edge(a, b)
        graph.add_edge(b, a)
        with pytest.raises(ValueError):
            graph.validate()

    def test_total_micro_ops(self):
        graph = Graph()
        graph.add(_op("a", micro=5))
        graph.add(_op("b", micro=7))
        assert graph.total_micro_ops == 12

    def test_ops_with_tag(self):
        graph = Graph()
        op = _op("a")
        op.tags["layer"] = "embedding"
        graph.add(op)
        graph.add(_op("b"))
        assert graph.ops_with_tag("layer", "embedding") == [op]
        assert len(graph.ops_with_tag("layer")) == 1

    def test_successors_predecessors(self):
        graph = Graph()
        a = graph.add(_op("a"))
        b = graph.add(_op("b"))
        graph.add_edge(a, b)
        assert graph.successors(a) == [b]
        assert graph.predecessors(b) == [a]


class TestCompilation:
    def test_launch_phase_prepended(self):
        graph = Graph()
        graph.add(_op("a", micro=10))
        table = graph.to_task_table(1e-6, launch_floor=0.0)
        kind, work, max_rate = table.phases[0][0]
        assert kind == ResourceKind.LAUNCH.value
        assert work == pytest.approx(10e-6)
        assert max_rate == 1.0

    def test_zero_launch_omitted(self):
        graph = Graph()
        graph.add(Op(name="a", kind=OpKind.CONTROL, phases=[],
                     micro_ops=0))
        table = graph.to_task_table(1e-6)
        assert table.phases[0] == ()

    def test_edges_translated(self):
        graph = Graph()
        a = graph.add(_op("a"))
        b = graph.add(_op("b"))
        graph.add_edge(a, b)
        table = graph.to_task_table(1e-6)
        assert table.names == ("a", "b")
        assert table.indegree == (0, 1)
        assert table.succs == ((1,), ())

    def test_negative_launch_rejected(self):
        graph = Graph()
        graph.add(_op("a"))
        with pytest.raises(ValueError):
            graph.to_task_table(-1.0)
