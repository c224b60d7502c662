"""The compile builds one iteration and stamps the rest.

``compile_plan`` builds one training step with placeholder predecessors
and stamps ``iterations`` copies in table space
(:func:`repro.graph.graph.stamp_task_table`).  The oracle is the full
build: ``IterationGraphBuilder.build(n)`` compiled by
``Graph.to_task_table``.  Successor order decides admission order, so
every field must be equal, not just equivalent.

The Tab. VII grid runs on a narrowed Product-2 (the first scalar and
sequence fields): the models keep every module kind and the plans every
strategy, slicing and stream shape, at a size that lets each case build
the oracle at 20 iterations.  The sweep grid's own full-width configs
are checked at the 2 iterations it runs.
"""

import dataclasses

import pytest

from repro.baselines import framework_by_name
from repro.core import PicassoConfig
from repro.core.executor import PlanSummary, _compile, launch_costs
from repro.core.planner import PicassoPlanner
from repro.data import product2
from repro.experiments.tab07_twelve_models import TAB7_BATCHES
from repro.graph.builder import IterationGraphBuilder
from repro.graph.graph import stamp_task_table
from repro.hardware import eflops_cluster
from repro.models import MODEL_BUILDERS

FRAMEWORKS = ("XDL", "TF-PS", "PICASSO", "PyTorch", "Horovod")
ITERATIONS = (1, 2, 3, 20)
CLUSTER = eflops_cluster(16)


def _narrow_product2():
    full = product2(0.01)
    scalar = [spec for spec in full.fields if spec.seq_length == 1]
    seq = [spec for spec in full.fields if spec.seq_length > 1]
    return dataclasses.replace(full, fields=tuple(scalar[:10] + seq[:3]))


NARROW = _narrow_product2()


def _plan(model, framework: str, lookahead: int = 1):
    batch, micro = TAB7_BATCHES[model.name]
    if framework == "PICASSO":
        config = PicassoConfig(micro_batches=micro,
                               prefetch_lookahead=lookahead)
        return PicassoPlanner(config).plan(model, CLUSTER, batch * micro)
    plan = framework_by_name(framework).plan(model, CLUSTER, batch)
    return dataclasses.replace(plan, prefetch_lookahead=lookahead)


def _oracle(plan, iterations: int) -> tuple:
    graph = IterationGraphBuilder(plan).build(iterations)
    micro_ops = graph.total_micro_ops
    table = graph.to_task_table(*launch_costs(plan,
                                              micro_ops / iterations))
    return PlanSummary(graph.name, len(graph), micro_ops), table


def _assert_stamped_equal(plan, iterations: int) -> None:
    summary, table = _compile(plan, iterations)
    oracle_summary, oracle = _oracle(plan, iterations)
    assert table.names == oracle.names
    assert table.phases == oracle.phases
    assert table.succs == oracle.succs
    assert table.indegree == oracle.indegree
    assert table.tags == oracle.tags
    assert summary == oracle_summary


class TestStampedEqualsFullBuild:
    @pytest.mark.parametrize("framework", FRAMEWORKS)
    @pytest.mark.parametrize("model_name", sorted(TAB7_BATCHES))
    def test_tab7_grid(self, model_name, framework):
        model = MODEL_BUILDERS[model_name](NARROW)
        for lookahead in (1, 4):
            plan = _plan(model, framework, lookahead)
            assert (plan.prefetch_share() > 0) == (lookahead > 1)
            for iterations in ITERATIONS:
                _assert_stamped_equal(plan, iterations)

    @pytest.mark.parametrize("variant", [
        dict(strategy="ps-async", io_overlap=True),
        dict(strategy="ps-sync", io_overlap=False),
        dict(strategy="hybrid", io_overlap=False, micro_batches=3,
             micro_batch_scope="mlp"),
    ], ids=["ps-async-overlap", "ps-sync-no-overlap", "mlp-slices"])
    @pytest.mark.parametrize("lookahead", (1, 4))
    def test_boundary_variants(self, variant, lookahead):
        # TF-PS is the grid's ps-async plan without io_overlap; these
        # cross the sync point and the io edge the other ways.
        model = MODEL_BUILDERS["DIEN"](NARROW)
        plan = dataclasses.replace(_plan(model, "XDL", lookahead),
                                   **variant)
        for iterations in ITERATIONS:
            _assert_stamped_equal(plan, iterations)

    @pytest.mark.parametrize("model_name", sorted(TAB7_BATCHES))
    def test_sweep_grid_full_width(self, model_name):
        model = MODEL_BUILDERS[model_name](product2(1.0))
        for framework in ("XDL", "PICASSO"):
            _assert_stamped_equal(_plan(model, framework), 2)


class TestStampTable:
    def _template(self, lookahead: int = 1):
        plan = _plan(MODEL_BUILDERS["W&D"](NARROW), "XDL", lookahead)
        return IterationGraphBuilder(plan).build(
            1, first=2 if lookahead > 1 else 1)

    def test_placeholders_lead_and_are_dropped(self):
        template = self._template()
        names = [op.name for op in template.ops]
        assert names[:2] == ["it0/io", "it0/step_end"]
        assert all(name.startswith("it1/") for name in names[2:])
        table = stamp_task_table(template.to_task_table(1e-6), 3)
        assert len(table) == 3 * (len(template) - 2)
        assert not [name for name in table.names if name.startswith("it3/")]

    def test_stream_placeholders_chain_the_prefetch_ops(self):
        template = self._template(lookahead=4)
        prefetch = [op for op in template.ops
                    if op.name.startswith("it1/prefetch/")]
        assert prefetch
        for op in prefetch:
            (succ,) = template.successors(op)
            assert succ.name == op.name.replace("it1/", "it2/", 1)

    def test_rejects_zero_iterations(self):
        template = self._template()
        with pytest.raises(ValueError):
            stamp_task_table(template.to_task_table(1e-6), 0)
