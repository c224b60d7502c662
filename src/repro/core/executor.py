"""Executing plans on the simulator and reporting the paper's metrics.

:func:`simulate_plan` is the shared measurement harness: it compiles an
:class:`~repro.graph.builder.ExecutionPlan` to a task table, runs
it, and reports the metrics the paper's tables use (IPS, SM
utilization, PCIe GB/s, network Gbps, breakdowns).
:class:`PicassoExecutor` wraps it behind the user-facing API.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import PicassoConfig
from repro.core.planner import PicassoPlanner
from repro.graph.builder import ExecutionPlan, IterationGraphBuilder
from repro.graph.graph import stamp_task_table
from repro.hardware.topology import ClusterSpec
from repro.memo import Memo
from repro.models.base import ModelSpec
from repro.sim.engine import Engine, SimResult, build_node_resources
from repro.sim.resource import ResourceKind


@dataclass
class RunReport:
    """Simulation outcome in the paper's units.

    :param ips: training throughput in instances/second per worker.
    :param sm_utilization: mean fraction of GPU FLOP capacity used —
        the DCGM-style "GPU SM utilization" percentage when x100.
    :param pcie_gbps: sustained PCIe traffic in gigaBYTES/s (Tab. IV).
    :param net_gbps: sustained network traffic in gigaBITS/s (Tab. IV).
    """

    name: str
    batch_size: int
    iterations: int
    seconds_per_iteration: float
    ips: float
    sm_utilization: float
    sm_flops_utilization: float
    sm_busy_fraction: float
    launch_busy_fraction: float
    pcie_gbps: float
    net_gbps: float
    nvlink_gbps: float
    op_count: int
    micro_ops: int
    packed_embeddings: int
    result: SimResult
    _breakdown: dict | None = field(default=None, repr=False)

    @property
    def breakdown(self) -> dict:
        """Time-weighted busy-category breakdown (computed lazily).

        Derived from the run's utilization traces on first access; the
        event sweep is a measurable slice of a run's wall-clock cost
        and most callers (benchmarks, tuning) never read it.
        """
        if self._breakdown is None:
            self._breakdown = self.result.recorder.category_breakdown(
                self.result.makespan)
        return self._breakdown

    def gpu_core_hours(self, instances: float, workers: int = 1) -> float:
        """GPU hours to train ``instances`` rows on ``workers`` GPUs.

        Synchronous data-parallel workers consume distinct instances,
        so the fleet processes ``workers * ips`` instances per second
        while burning ``workers`` GPU-seconds per second.
        """
        if self.ips <= 0:
            return float("inf")
        return instances / self.ips / 3600.0


@dataclass(frozen=True)
class PlanSummary:
    """What a report needs of a compiled plan's operator graph.

    :param name: the graph's name (the report's default name).
    :param op_count: logical ops in the graph, all iterations.
    :param micro_ops: framework-level operations, all iterations.
    """

    name: str
    op_count: int
    micro_ops: int


#: Compiled-plan memo: ``(plan fingerprint, iterations)`` ->
#: ``(summary, table)``.  Graph building is fully deterministic
#: (workload statistics are seeded), so two plans with equal signatures
#: compile to identical tables; repeated bench/tune/replay invocations
#: of the same workload skip the rebuild entirely.
_COMPILED = Memo("compile", 64)


def launch_costs(plan: ExecutionPlan,
                 micro_ops_per_iteration: float) -> tuple:
    """``(seconds per micro-op, floor per op)`` of a plan's launch phases.

    Very large graphs pay superlinear executor scheduling cost (the
    reason Tab. VIII's PS baseline falls below arithmetic progression
    as feature fields multiply), so both scale past the cost model's
    graph-overhead knee.
    """
    overhead = 1.0 + max(0.0, micro_ops_per_iteration
                         / plan.cost.graph_overhead_knee - 1.0)
    return (plan.cost.launch_per_micro_op * plan.launch_scale * overhead,
            plan.cost.launch_floor * plan.launch_scale * overhead)


def compile_plan(plan: ExecutionPlan, iterations: int) -> tuple:
    """Compile a plan to ``(summary, table, resources)``, costs applied.

    This is the deterministic front half of :func:`simulate_plan`: the
    operator graph's :class:`PlanSummary`, its compiled
    :class:`~repro.sim.engine.TaskTable` (launch-cost projection
    included) and the node's resource set — everything the engine
    needs, and everything the what-if predictor (:mod:`repro.tuning`)
    needs to total per-kind work without running the engine.

    Results are cached keyed by the sha256 fingerprint of
    ``plan.signature()`` plus ``iterations``; a hit returns the cached
    summary and table themselves, which are immutable, so any number of
    runs may share them.  Resources are always rebuilt — they carry
    engine occupancy state.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    # Imported lazily: repro.bench's package init pulls in the api
    # facade, which imports this module.
    from repro.bench.snapshot import config_fingerprint

    # The fingerprint is cached on the plan object: plans are immutable
    # once planning returns (the planner's plan memo shares them), and
    # hashing a wide plan's signature is a measurable slice of a warm
    # run.
    fingerprint = getattr(plan, "_fingerprint", None)
    if fingerprint is None:
        fingerprint = config_fingerprint(plan.signature())
        plan._fingerprint = fingerprint
    summary, table = _COMPILED.get((fingerprint, iterations), _compile,
                                   plan, iterations)
    return summary, table, build_node_resources(plan.cluster.node)


def _compile(plan: ExecutionPlan, iterations: int) -> tuple:
    """Build one step and stamp the rest.  With the prefetch stream on,
    step 0 (no stream) is built apart and step 2 is the template."""
    builder = IterationGraphBuilder(plan)
    head = builder.build(1) if plan.prefetch_share() > 0 else None
    template = builder.build(1, first=1 if head is None else 2)
    micro_ops = template.total_micro_ops * iterations
    if head is not None:
        micro_ops += head.total_micro_ops - template.total_micro_ops
    launch = launch_costs(plan, micro_ops / iterations)
    table = stamp_task_table(
        template.to_task_table(*launch), iterations,
        None if head is None else head.to_task_table(*launch))
    return PlanSummary(template.name, len(table), micro_ops), table


def per_iteration_seconds(makespan: float, first_step_end: float,
                          iterations: int) -> float:
    """Steady-state seconds per iteration from run markers.

    The first iteration is treated as pipeline warm-up: with more than
    one step, per-iteration time is measured from the end of step 0
    (the ``it0/step_end`` marker).  Asynchronous strategies queue
    trailing pushes long past the first step marker, so the
    marker-based estimate can collapse; the mean over all steps
    lower-bounds steady-state cost.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if iterations == 1:
        return makespan
    per_iteration = (makespan - first_step_end) / (iterations - 1)
    return max(per_iteration, makespan / iterations)


def simulate_plan(plan: ExecutionPlan, iterations: int = 3,
                  name: str | None = None,
                  record_tasks: bool = False,
                  fault_plan=None) -> RunReport:
    """Build, execute and measure a plan over ``iterations`` steps.

    The first iteration is treated as pipeline warm-up: per-iteration
    time is measured from the end of step 0 when more than one step is
    simulated.

    ``record_tasks=True`` makes the returned report's ``result`` carry
    per-task :class:`~repro.sim.trace.TaskRecord` telemetry (for
    Chrome-trace export and critical-path analysis).

    ``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan`) injects
    crashes/stragglers/link degradations into the engine run: crashes
    kill in-flight work back to the queue, stragglers and link faults
    scale resource capacity over their windows, so the reported
    throughput is the *faulted* throughput.
    """
    summary, table, resources = compile_plan(plan, iterations)
    engine = Engine(resources)
    injector = None
    if fault_plan is not None and len(fault_plan):
        from repro.faults.inject import FaultInjector
        injector = FaultInjector(fault_plan)
    result = engine.run(table, keep_finish_times=True,
                        record_tasks=record_tasks, injector=injector)

    first_end = result.finish_times.get("it0/step_end", 0.0) or 0.0
    per_iteration = per_iteration_seconds(result.makespan, first_end,
                                          iterations)

    sm_capacity = resources[ResourceKind.GPU_SM].capacity
    nvlink_rate = 0.0
    if ResourceKind.NVLINK in resources:
        nvlink_rate = result.mean_rate(ResourceKind.NVLINK)
    gpu_busy = result.recorder.union_busy_seconds(
        (ResourceKind.GPU_SM, ResourceKind.HBM))
    return RunReport(
        name=name or summary.name,
        batch_size=plan.batch_size,
        iterations=iterations,
        seconds_per_iteration=per_iteration,
        ips=plan.batch_size / per_iteration,
        sm_utilization=min(1.0, gpu_busy / result.makespan)
        if result.makespan > 0 else 0.0,
        sm_flops_utilization=(result.mean_rate(ResourceKind.GPU_SM)
                              / sm_capacity),
        sm_busy_fraction=result.busy_fraction(ResourceKind.GPU_SM),
        launch_busy_fraction=result.busy_fraction(ResourceKind.LAUNCH),
        pcie_gbps=result.mean_rate(ResourceKind.PCIE) / 1e9,
        net_gbps=result.mean_rate(ResourceKind.NET) * 8.0 / 1e9,
        nvlink_gbps=nvlink_rate * 8.0 / 1e9,
        op_count=summary.op_count,
        micro_ops=summary.micro_ops // iterations,
        packed_embeddings=len(plan.groups),
        result=result,
    )


class PicassoExecutor:
    """The user-facing PICASSO training executor.

    Mirrors the deployment model of the paper: one executor per
    machine, hybrid MP/DP strategy, software-system optimization on by
    default.

    Example::

        executor = PicassoExecutor(model, cluster)
        report = executor.run(batch_size=20_000)
        print(report.ips, report.sm_utilization)
    """

    def __init__(self, model: ModelSpec, cluster: ClusterSpec,
                 config: PicassoConfig | None = None):
        self.model = model
        self.cluster = cluster
        self.config = config or PicassoConfig()
        self._planner = PicassoPlanner(self.config)

    def plan(self, batch_size: int) -> ExecutionPlan:
        """The optimized execution plan for one batch size."""
        return self._planner.plan(self.model, self.cluster, batch_size)

    def run(self, batch_size: int, iterations: int = 3,
            record_tasks: bool = False, fault_plan=None) -> RunReport:
        """Plan and simulate a training run; returns the full report."""
        plan = self.plan(batch_size)
        return simulate_plan(plan, iterations=iterations,
                             name=f"PICASSO/{self.model.name}",
                             record_tasks=record_tasks,
                             fault_plan=fault_plan)
