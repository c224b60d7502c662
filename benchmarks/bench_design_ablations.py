"""Ablations of the reproduction's own design choices (DESIGN.md SS5).

These are not paper tables: they probe the cost-model mechanisms the
simulator's conclusions rest on, so a regression in one of them warns
that a headline reproduction may have lost its explanatory mechanism.

* launch-path serialization: fragmentary graphs must be launch-bound;
* kernel fusion must trade launch time, not hardware work;
* fine-grained dependencies (vs a global concat barrier) must matter;
* the interleaving pipeline must actually overlap comm with compute.
"""

from conftest import run_once, show

from repro.core import PicassoConfig, PicassoExecutor
from repro.data import criteo, product2
from repro.graph import fusion_report
from repro.graph.builder import (
    ExecutionPlan,
    IterationGraphBuilder,
    groups_per_field,
)
from repro.hardware import eflops_cluster
from repro.models import can, dlrm
from repro.sim.engine import Engine, build_node_resources


def _baseline_plan(model, cluster, batch):
    return ExecutionPlan(model=model, cluster=cluster, batch_size=batch,
                         strategy="mp",
                         groups=groups_per_field(model.dataset))


def test_launch_slots_sensitivity(benchmark):
    """Fragmentary graphs speed up with dispatch parallelism."""
    model = dlrm(criteo(0.01))
    cluster = eflops_cluster(4)
    plan = _baseline_plan(model, cluster, 4096)
    graph = IterationGraphBuilder(plan).build(2)
    table = graph.to_task_table(plan.cost.launch_per_micro_op)

    def run():
        results = {}
        for slots in (1, 2, 4, 8):
            resources = build_node_resources(cluster.node,
                                             launch_slots=slots)
            results[slots] = Engine(resources).run(table).makespan
        return results

    results = run_once(benchmark, run)
    rows = [{"launch_slots": slots, "makespan_ms": round(span * 1e3, 1)}
            for slots, span in results.items()]
    show("design ablation: launch slots", rows)
    assert results[1] > results[4]  # dispatch parallelism helps


def test_fusion_trades_launch_not_hardware_work(benchmark):
    """K-Packing saves micro-ops while conserving phase work."""
    model = dlrm(criteo(0.01))
    plan = _baseline_plan(model, eflops_cluster(4), 4096)
    graph = IterationGraphBuilder(plan).build(1)
    report = run_once(benchmark, lambda: fusion_report(graph))
    show("design ablation: generic fusion", [report])
    assert report["ops_after"] < report["ops_before"]
    assert report["micro_ops_after"] < report["micro_ops_before"]


def test_fine_grained_deps_matter(benchmark):
    """Removing the global concat barrier must help (or not hurt)."""
    model = can(product2(0.02))
    cluster = eflops_cluster(8)

    def run():
        coarse = PicassoConfig(micro_batches=1, interleave_sets=3)
        executor = PicassoExecutor(model, cluster, coarse)
        plan = executor.plan(8192)
        plan.fine_grained_deps = False
        from repro.core.executor import simulate_plan
        barrier = simulate_plan(plan, iterations=2)
        plan2 = executor.plan(8192)
        plan2.fine_grained_deps = True
        fine = simulate_plan(plan2, iterations=2)
        return {"barrier_ips": round(barrier.ips),
                "fine_grained_ips": round(fine.ips)}

    result = run_once(benchmark, run)
    show("design ablation: fine-grained deps", [result])
    assert result["fine_grained_ips"] >= result["barrier_ips"] * 0.95


def test_pipeline_overlap_is_real(benchmark):
    """With interleaving, comm must overlap compute (low exposure)."""
    model = can(product2(0.02))
    cluster = eflops_cluster(8)

    def run():
        full = PicassoExecutor(model, cluster).run(8192, iterations=2)
        flat = PicassoExecutor(
            model, cluster,
            PicassoConfig().without("interleaving")).run(8192,
                                                         iterations=2)
        return {
            "interleaved_comm_exposed_pct": round(
                full.breakdown["communication"]["exposed"] * 100, 1),
            "flat_comm_exposed_pct": round(
                flat.breakdown["communication"]["exposed"] * 100, 1),
        }

    result = run_once(benchmark, run)
    show("design ablation: pipeline overlap", [result])
    assert result["interleaved_comm_exposed_pct"] \
        <= result["flat_comm_exposed_pct"] + 2.0
