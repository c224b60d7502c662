"""Unit tests for the generic K-Packing fusion rewrite."""

import pytest

from repro.graph import Graph, Op, OpKind
from repro.graph.fusion import fuse_chains, fusible_chains, fusion_report
from repro.sim import Engine, Resource, ResourceKind
from repro.sim.resource import Phase


def _op(name, kind, work=10.0, micro=10):
    return Op(name=name, kind=kind,
              phases=[Phase(ResourceKind.HBM if kind in
                            (OpKind.UNIQUE, OpKind.PARTITION,
                             OpKind.GATHER) else ResourceKind.GPU_SM,
                            work)],
              micro_ops=micro)


def _chain_graph():
    """unique -> partition -> gather (memory) -> mlp (compute)."""
    graph = Graph()
    unique = graph.add(_op("unique", OpKind.UNIQUE))
    partition = graph.add(_op("partition", OpKind.PARTITION))
    gather = graph.add(_op("gather", OpKind.GATHER))
    mlp = graph.add(_op("mlp", OpKind.MLP))
    graph.add_edge(unique, partition)
    graph.add_edge(partition, gather)
    graph.add_edge(gather, mlp)
    return graph


class TestChainDetection:
    def test_finds_memory_chain(self):
        chains = fusible_chains(_chain_graph())
        assert len(chains) == 1
        assert [op.name for op in chains[0]] \
            == ["unique", "partition", "gather"]

    def test_never_crosses_groups(self):
        for chain in fusible_chains(_chain_graph()):
            groups = {op.group for op in chain}
            assert len(groups) == 1

    def test_branching_breaks_chains(self):
        graph = Graph()
        a = graph.add(_op("a", OpKind.UNIQUE))
        b = graph.add(_op("b", OpKind.PARTITION))
        c = graph.add(_op("c", OpKind.GATHER))
        graph.add_edge(a, b)
        graph.add_edge(a, c)  # a has two successors: no chain from a
        assert fusible_chains(graph) == []

    def test_no_chain_in_singleton(self):
        graph = Graph()
        graph.add(_op("solo", OpKind.UNIQUE))
        assert fusible_chains(graph) == []


class TestFusion:
    def test_reduces_op_count(self):
        graph = _chain_graph()
        fused = fuse_chains(graph)
        assert len(fused) == 2  # fused memory chain + mlp

    def test_micro_ops_discounted(self):
        graph = _chain_graph()
        fused = fuse_chains(graph)
        fused_op = next(op for op in fused.ops
                        if op.name.startswith("fused:"))
        assert fused_op.micro_ops == int(30 * 0.6)

    def test_phases_preserved_in_order(self):
        graph = _chain_graph()
        fused = fuse_chains(graph)
        fused_op = next(op for op in fused.ops
                        if op.name.startswith("fused:"))
        assert len(fused_op.phases) == 3

    def test_edges_rewired(self):
        fused = fuse_chains(_chain_graph())
        fused.validate()
        mlp = fused.op("mlp")
        preds = fused.predecessors(mlp)
        assert len(preds) == 1
        assert preds[0].name.startswith("fused:")

    def test_total_hardware_work_conserved(self):
        graph = _chain_graph()
        fused = fuse_chains(graph)
        for kind in (ResourceKind.HBM, ResourceKind.GPU_SM):
            before = sum(op.total_work(kind) for op in graph.ops)
            after = sum(op.total_work(kind) for op in fused.ops)
            assert before == pytest.approx(after)

    def test_fused_graph_simulates_faster(self):
        """Fusion saves launch time but not hardware work."""
        graph = _chain_graph()
        fused = fuse_chains(graph)

        def run(target):
            resources = {
                ResourceKind.LAUNCH: Resource(ResourceKind.LAUNCH,
                                              capacity=1.0, slots=1),
                ResourceKind.HBM: Resource(ResourceKind.HBM, 1e3),
                ResourceKind.GPU_SM: Resource(ResourceKind.GPU_SM, 1e3),
            }
            table = target.to_task_table(1e-3)
            return Engine(resources).run(table).makespan

        assert run(fused) < run(graph)

    def test_report(self):
        report = fusion_report(_chain_graph())
        assert report["ops_before"] == 4
        assert report["ops_after"] == 2
        assert report["chains"] == 1
        assert report["micro_ops_after"] < report["micro_ops_before"]

    def test_idempotent_on_fused_graph(self):
        fused = fuse_chains(_chain_graph())
        again = fuse_chains(fused)
        assert len(again) == len(fused)

    def test_builder_graph_fuses_and_stays_valid(self):
        from repro.data import criteo
        from repro.graph import ExecutionPlan, IterationGraphBuilder, \
            groups_per_field
        from repro.hardware import eflops_cluster
        from repro.models import dlrm
        model = dlrm(criteo(0.001))
        plan = ExecutionPlan(model=model, cluster=eflops_cluster(2),
                             batch_size=512, strategy="mp",
                             groups=groups_per_field(model.dataset))
        graph = IterationGraphBuilder(plan).build(1)
        fused = fuse_chains(graph)
        fused.validate()
        assert len(fused) < len(graph)

    def test_fusion_trades_launch_not_hardware_work(self):
        """Design ablation: K-Packing saves micro-ops on a real graph."""
        from repro.data import criteo
        from repro.graph import ExecutionPlan, IterationGraphBuilder, \
            groups_per_field
        from repro.hardware import eflops_cluster
        from repro.models import dlrm
        model = dlrm(criteo(0.01))
        plan = ExecutionPlan(model=model, cluster=eflops_cluster(4),
                             batch_size=4096, strategy="mp",
                             groups=groups_per_field(model.dataset))
        report = fusion_report(IterationGraphBuilder(plan).build(1))
        assert report["ops_after"] < report["ops_before"]
        assert report["micro_ops_after"] < report["micro_ops_before"]
