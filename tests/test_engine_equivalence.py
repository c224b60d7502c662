"""Bitwise equivalence of :meth:`Engine.run` vs a per-event reference.

The engine's numpy slot arrays, cached lane allocations, sorted-cap
water-fill with masked writes, and one-occupant shortcut are only
allowed to make it *faster* than the plain per-event Python scan below
(:func:`reference_run`) — never different.  Every test here runs the
same workload through both and compares the complete observable
outcome with ``==`` (no tolerances): makespan, event counts, finish
times, per-task execution segments, per-resource utilization traces,
and the fault injector's kill/requeue log.  Any float that drifts by
one ulp fails.

Workloads come from four sources: hand-built DAGs covering the
engine's edge cases, hypothesis-generated random DAGs (narrow and
wide), single lanes that pile up to tens of occupants and drain again
(under straggler windows and crashes), and real compiled plans (narrow
W&D and wide CAN).  For the compiled plans the engine runs the cached
:class:`~repro.sim.engine.TaskTable` while the reference runs
``SimTask`` objects built from the same graph by
:func:`oracle_sim_tasks`, so a wrong table cannot pass by being
compared with itself.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import RunConfig
from repro.baselines import framework_by_name
from repro.core.config import PicassoConfig
from repro.core.executor import compile_plan, launch_costs
from repro.core.planner import PicassoPlanner
from repro.data import product2
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.graph.builder import IterationGraphBuilder
from repro.hardware import eflops_cluster
from repro.models import can
from repro.sim import Engine, Phase, Resource, ResourceKind, SimTask
from repro.sim.engine import _EPS, _MASK_MIN, _MIN_SLOTS, SimResult
from repro.sim.trace import TaskRecord, TraceRecorder

KINDS = (ResourceKind.NET, ResourceKind.GPU_SM, ResourceKind.HBM,
         ResourceKind.CPU)


def reference_run(resources: dict, tasks: list,
                  keep_finish_times: bool = False,
                  record_tasks: bool = False, injector=None) -> SimResult:
    """The per-event Python scan :meth:`Engine.run` must match exactly.

    Every event re-runs :meth:`Resource.allocate_rates` on every
    occupied resource and steps each task's remaining work one scalar
    at a time — no slot arrays, no cached lanes, no shortcuts.  Same
    signature as ``Engine(resources).run(tasks, ...)``.
    """
    for resource in resources.values():
        resource.active.clear()
        resource.queue.clear()
    recorder = TraceRecorder(
        {kind: res.capacity for kind, res in resources.items()})
    now = 0.0
    events = 0
    finished = 0
    total = len(tasks)
    running: set = set()
    records: list = []
    segment_start: dict = {}  # task -> current segment's start time
    segments: dict = {}  # task -> [(kind value, t0, t1), ...]
    pred_names: dict = {}
    if record_tasks:
        pred_names = {id(task): [] for task in tasks}
        for task in tasks:
            for succ in task.succs:
                pred_names[id(succ)].append(task.name)

    def begin_segment(task: SimTask) -> None:
        if record_tasks:
            segment_start[id(task)] = now

    def end_segment(task: SimTask) -> None:
        if record_tasks:
            start = segment_start.pop(id(task))
            segments.setdefault(id(task), []).append(
                (task.current_phase.kind.value, start, now))

    def admit(task: SimTask) -> None:
        while True:
            if task.done_with_phases or not task.phases:
                complete(task)
                return
            if task.current_phase.work <= 0:
                if not task.advance_phase():
                    complete(task)
                    return
                continue
            break
        resource = resources[task.current_phase.kind]
        if resource.has_free_slot():
            resource.active.append(task)
            running.add(task)
            begin_segment(task)
            if task.start_time is None:
                task.start_time = now
        else:
            resource.queue.append(task)
            if task.start_time is None:
                task.start_time = now

    def complete(task: SimTask) -> None:
        nonlocal finished
        task.finish_time = now
        finished += 1
        if record_tasks:
            records.append(TaskRecord(
                name=task.name,
                start=task.start_time if task.start_time is not None
                else now,
                end=now,
                preds=tuple(pred_names.get(id(task), ())),
                tags=dict(task.tags),
                segments=tuple(segments.pop(id(task), ()))))
        for succ in task.succs:
            succ.indegree -= 1
            if succ.indegree == 0:
                admit(succ)

    # Snapshot the initial ready set first: admitting a zero-work
    # task can cascade completions that drop other tasks' indegree
    # to zero, and those are already admitted by the cascade.
    initially_ready = [task for task in tasks if task.indegree == 0]
    for task in initially_ready:
        admit(task)

    def kill_in_flight() -> int:
        """Crash semantics: every in-flight task loses its current
        phase's progress and re-enters its resource queue."""
        killed = 0
        for resource in resources.values():
            for task in list(resource.active):
                end_segment(task)  # the aborted occupancy stays visible
                task.remaining = task.current_phase.work
                resource.active.remove(task)
                running.discard(task)
                resource.queue.append(task)
                killed += 1
            while resource.queue and resource.has_free_slot():
                queued = resource.queue.pop(0)
                resource.active.append(queued)
                running.add(queued)
                begin_segment(queued)
                if queued.start_time is None:
                    queued.start_time = now
        return killed

    while running:
        events += 1
        # Allocate rates per resource and find the earliest completion.
        rates: dict = {}
        totals: dict = {}
        dt = math.inf
        for kind, resource in resources.items():
            if not resource.active:
                continue
            scale = injector.scale(kind, now) if injector else 1.0
            allocation = resource.allocate_rates(scale)
            totals[kind] = sum(allocation.values())
            for task, rate in allocation.items():
                rates[task] = rate
                if rate > 0:
                    dt = min(dt, task.remaining / rate)
        if injector is not None:
            boundary = injector.next_boundary(now)
            if math.isfinite(boundary):
                dt = min(dt, max(boundary - now, 0.0))
        if not math.isfinite(dt):
            raise RuntimeError("simulation stalled with running tasks")
        dt = max(dt, 0.0)
        if dt > 0:
            recorder.add_interval(now, now + dt, totals)
        previous = now
        now += dt

        completed_phase = []
        for task, rate in rates.items():
            task.remaining -= rate * dt
            if task.remaining <= _EPS * max(1.0, rate):
                completed_phase.append(task)
        for task in completed_phase:
            resource = resources[task.current_phase.kind]
            end_segment(task)
            resource.active.remove(task)
            running.discard(task)
            while resource.queue and resource.has_free_slot():
                queued = resource.queue.pop(0)
                resource.active.append(queued)
                running.add(queued)
                begin_segment(queued)
                if queued.start_time is None:
                    queued.start_time = now
            if task.advance_phase():
                admit(task)
            else:
                complete(task)

        if injector is not None:
            for event in injector.crashes_between(previous, now):
                injector.record(event, now, kill_in_flight())

    if finished != total:
        stuck = total - finished
        raise RuntimeError(
            f"{stuck} task(s) never became ready; dependency cycle?")
    finish_times = {}
    if keep_finish_times:
        finish_times = {task.name: task.finish_time for task in tasks}
    return SimResult(makespan=now, recorder=recorder,
                     task_count=total, event_count=events,
                     finish_times=finish_times, task_records=records)


def oracle_sim_tasks(graph, launch_seconds_per_micro_op: float,
                     launch_floor: float = 0.0) -> list:
    """``SimTask`` objects for ``graph``, built without ``TaskTable``.

    An independent copy of the graph compilation the engine's tables
    come from: a ``LAUNCH`` phase of ``micro_ops * launch + floor`` at
    rate 1.0 (when positive) before each op's phases, and one
    ``depends_on`` per predecessor entry, ops in graph order.
    """
    tasks = {}
    for op in graph.ops:
        phases = []
        launch = (op.micro_ops * launch_seconds_per_micro_op
                  + launch_floor)
        if launch > 0:
            phases.append(Phase(ResourceKind.LAUNCH, launch, max_rate=1.0))
        phases.extend(op.phases)
        tasks[op.name] = SimTask(op.name, phases, tags=op.tags)
    for op in graph.ops:
        for pred in graph.predecessors(op):
            tasks[op.name].depends_on(tasks[pred.name])
    return [tasks[op.name] for op in graph.ops]


def engine_run(resources: dict, tasks: list, **kwargs) -> SimResult:
    """The code under test, with :func:`reference_run`'s signature."""
    return Engine(resources).run(tasks, **kwargs)


#: (reference, engine): every comparison runs both, in this order.
RUNNERS = (reference_run, engine_run)


def _both_runs(resources_builder, tasks_builder, injector_builder=None):
    """Run fresh tasks through the reference and the engine.

    Builders are callables so each run gets its own task/resource
    (and injector) objects — a run mutates all three.  Returns
    ``(reference, engine)`` results plus, when an injector builder is
    given, each run's kill/requeue log.
    """
    results = []
    logs = []
    for runner in RUNNERS:
        injector = injector_builder() if injector_builder else None
        results.append(runner(resources_builder(), tasks_builder(),
                              keep_finish_times=True, record_tasks=True,
                              injector=injector))
        if injector is not None:
            logs.append([(event.kind, event.time_s, time_s, killed)
                         for event, time_s, killed in injector.log])
    return results, logs


def _assert_bitwise_equal(reference, result):
    """Every observable of the two results must compare ``==``."""
    assert result.makespan == reference.makespan
    assert result.task_count == reference.task_count
    assert result.event_count == reference.event_count
    assert result.finish_times == reference.finish_times
    reference_records = [(r.name, r.start, r.end, r.preds, r.segments)
                         for r in reference.task_records]
    records = [(r.name, r.start, r.end, r.preds, r.segments)
               for r in result.task_records]
    assert records == reference_records
    assert set(result.recorder.kinds()) == set(reference.recorder.kinds())
    for kind in reference.recorder.kinds():
        a = reference.recorder.trace(kind)
        b = result.recorder.trace(kind)
        assert b.busy_seconds == a.busy_seconds, kind
        assert b.work_done == a.work_done, kind
        assert b.segments == a.segments, kind


def _check(resources_builder, tasks_builder):
    (reference, result), _logs = _both_runs(resources_builder,
                                            tasks_builder)
    _assert_bitwise_equal(reference, result)


# ---------------------------------------------------------------------
# Hand-built DAGs: the engine's structural edge cases.
# ---------------------------------------------------------------------

class TestHandBuiltEquivalence:
    def _resources(self):
        return {
            ResourceKind.NET: Resource(ResourceKind.NET, capacity=10.0),
            ResourceKind.GPU_SM: Resource(ResourceKind.GPU_SM,
                                          capacity=7.0),
            ResourceKind.LAUNCH: Resource(ResourceKind.LAUNCH,
                                          capacity=2.0, slots=2),
        }

    def test_empty_task_list(self):
        _check(self._resources, lambda: [])

    def test_zero_phase_and_zero_work_tasks(self):
        def tasks():
            a = SimTask("a", [])
            b = SimTask("b", [Phase(ResourceKind.NET, 0.0),
                              Phase(ResourceKind.NET, 13.0)])
            c = SimTask("c", [Phase(ResourceKind.GPU_SM, 0.0)])
            c.depends_on(a)
            # a releases c, then w1.  c has no work, so it finishes at
            # once and its w2 is admitted before w1 (depth first); the
            # two then share LAUNCH and finish in admission order.
            w1 = SimTask("w1", [Phase(ResourceKind.LAUNCH, 4.0)])
            w2 = SimTask("w2", [Phase(ResourceKind.LAUNCH, 4.0)])
            w1.depends_on(a)
            w2.depends_on(c)
            return [a, b, c, w1, w2]
        _check(self._resources, tasks)

    def test_processor_sharing_with_caps(self):
        def tasks():
            out = [SimTask(f"t{i}",
                           [Phase(ResourceKind.NET, 37.0,
                                  max_rate=1.5 + 0.7 * i)])
                   for i in range(5)]
            out.append(SimTask("free", [Phase(ResourceKind.NET, 11.0)]))
            return out
        _check(self._resources, tasks)

    @pytest.mark.parametrize("caps", [(None, None), (1.0, None),
                                      (None, 1.0), (1.0, 2.0),
                                      (9.5, 9.5)])
    def test_two_occupants(self, caps):
        # Every outcome of a two-task water-fill: neither, either or
        # both capped below the fair share.
        def tasks():
            return [SimTask(f"p{i}",
                            [Phase(ResourceKind.NET, 20.0 + i)
                             if cap is None
                             else Phase(ResourceKind.NET, 20.0 + i,
                                        max_rate=cap)])
                    for i, cap in enumerate(caps)]
        _check(self._resources, tasks)

    @pytest.mark.parametrize("half", [1, _MASK_MIN])
    def test_simultaneous_capped_and_uncapped_completions(self, half):
        # ``half`` uncapped tasks, then ``half`` admitted later with a
        # cap of 1 below the fair share of 2.5; the rest get 4 each,
        # and works are sized so all finish at t=1 in one event.  The
        # reference emits the capped ones first (allocation order),
        # not in admission order.
        def tasks():
            free = [SimTask(f"u{i}", [Phase(ResourceKind.NET, 4.0)])
                    for i in range(half)]
            capped = [SimTask(f"c{i}", [Phase(ResourceKind.NET, 1.0,
                                              max_rate=1.0)])
                      for i in range(half)]
            return free + capped

        def resources():
            return {ResourceKind.NET: Resource(ResourceKind.NET,
                                               capacity=5.0 * half)}
        (reference, result), _logs = _both_runs(resources, tasks)
        _assert_bitwise_equal(reference, result)
        assert reference.event_count == 1
        assert reference.task_records[0].name == "c0"

    def test_fifo_slot_queue_ordering(self):
        def tasks():
            # 5 tasks through a 2-slot resource: admission order and
            # queue rotation must match the reference FIFO exactly.
            return [SimTask(f"q{i}",
                            [Phase(ResourceKind.LAUNCH, 1.0 + i),
                             Phase(ResourceKind.NET, 5.0)])
                    for i in range(5)]
        _check(self._resources, tasks)

    def test_diamond_with_mixed_kinds(self):
        def tasks():
            a = SimTask("a", [Phase(ResourceKind.NET, 10.0)])
            b = SimTask("b", [Phase(ResourceKind.GPU_SM, 21.0)])
            c = SimTask("c", [Phase(ResourceKind.NET, 8.0),
                              Phase(ResourceKind.GPU_SM, 3.0)])
            d = SimTask("d", [Phase(ResourceKind.NET, 1.0)])
            b.depends_on(a)
            c.depends_on(a)
            d.depends_on(b)
            d.depends_on(c)
            return [a, b, c, d]
        _check(self._resources, tasks)

    def test_cycle_detection_in_both_loops(self):
        for runner in RUNNERS:
            a = SimTask("a", [Phase(ResourceKind.NET, 1.0)])
            b = SimTask("b", [Phase(ResourceKind.NET, 1.0)])
            a.depends_on(b)
            b.depends_on(a)
            with pytest.raises(RuntimeError, match="dependency cycle"):
                runner(self._resources(), [a, b])

    def test_single_loop_has_no_loop_selector(self):
        with pytest.raises(TypeError):
            Engine(self._resources(), vectorized=False)


# ---------------------------------------------------------------------
# Random DAGs (hypothesis): structure, work amounts, caps, and slots
# drawn adversarially.
# ---------------------------------------------------------------------

@st.composite
def dag_specs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    work = st.floats(min_value=1e-6, max_value=1e4,
                     allow_nan=False, allow_infinity=False)
    tasks = []
    for i in range(n):
        phase_count = draw(st.integers(min_value=0, max_value=3))
        phases = []
        for _ in range(phase_count):
            kind = draw(st.sampled_from(range(len(KINDS))))
            cap = draw(st.one_of(
                st.none(),
                st.floats(min_value=0.1, max_value=50.0,
                          allow_nan=False)))
            phases.append((kind, draw(work), cap))
        preds = sorted(draw(st.sets(
            st.integers(min_value=0, max_value=i - 1),
            max_size=min(i, 3)))) if i else []
        tasks.append((phases, preds))
    capacities = tuple(
        draw(st.floats(min_value=0.5, max_value=100.0,
                       allow_nan=False))
        for _ in KINDS)
    slots = draw(st.one_of(st.none(),
                           st.integers(min_value=1, max_value=3)))
    return tasks, capacities, slots


def _materialize(spec):
    task_specs, capacities, slots = spec

    def resources():
        built = {
            kind: Resource(kind, capacity=capacity)
            for kind, capacity in zip(KINDS, capacities)
        }
        if slots is not None:
            built[KINDS[0]] = Resource(KINDS[0],
                                       capacity=capacities[0],
                                       slots=slots)
        return built

    def tasks():
        built = []
        for index, (phases, _preds) in enumerate(task_specs):
            built.append(SimTask(
                f"t{index}",
                [Phase(KINDS[kind], amount)
                 if cap is None
                 else Phase(KINDS[kind], amount, max_rate=cap)
                 for kind, amount, cap in phases]))
        for index, (_phases, preds) in enumerate(task_specs):
            for pred in preds:
                built[index].depends_on(built[pred])
        return built

    return resources, tasks


@st.composite
def wide_lane_specs(draw):
    """Tens of tasks piling onto the first kind's lane, with caps drawn
    around its fair share so capped and uncapped fills both occur."""
    n = draw(st.integers(min_value=_MASK_MIN, max_value=48))
    capacity = draw(st.floats(min_value=1.0, max_value=100.0))
    fair = capacity / n
    work = st.floats(min_value=1e-3, max_value=1e3)
    tasks = []
    for i in range(n):
        cap = draw(st.one_of(st.none(), st.floats(min_value=0.2 * fair,
                                                  max_value=3.0 * fair)))
        phases = [(0, draw(work), cap)]
        if draw(st.booleans()):
            phases.append((1, draw(work), None))
        preds = ([draw(st.integers(min_value=0, max_value=i - 1))]
                 if i and draw(st.integers(min_value=0, max_value=3)) == 0
                 else [])
        tasks.append((phases, preds))
    capacities = (capacity,) + tuple(
        draw(st.floats(min_value=0.5, max_value=100.0)) for _ in KINDS[1:])
    return tasks, capacities, None


class TestRandomDagEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(dag_specs())
    def test_random_dag_bitwise(self, spec):
        _check(*_materialize(spec))

    @settings(max_examples=25, deadline=None)
    @given(wide_lane_specs())
    def test_random_wide_lane_bitwise(self, spec):
        _check(*_materialize(spec))


# ---------------------------------------------------------------------
# Fault injection: capacity windows and crash kill/requeue ordering.
# ---------------------------------------------------------------------

class TestFaultEquivalence:
    def _plan(self):
        return FaultPlan(events=(
            FaultEvent(kind="straggler", time_s=0.5, duration_s=2.0,
                       severity=3.0),
            FaultEvent(kind="crash", time_s=2.0, duration_s=1.0),
            FaultEvent(kind="link_degrade", time_s=4.0,
                       duration_s=2.0, severity=0.5),
            FaultEvent(kind="crash", time_s=7.0, duration_s=0.5),
        ))

    def _resources(self):
        return {
            ResourceKind.NET: Resource(ResourceKind.NET, capacity=10.0),
            ResourceKind.GPU_SM: Resource(ResourceKind.GPU_SM,
                                          capacity=7.0),
        }

    def _tasks(self):
        out = []
        for i in range(8):
            task = SimTask(f"f{i}",
                           [Phase(ResourceKind.NET, 9.0 + i),
                            Phase(ResourceKind.GPU_SM, 4.0)])
            if i >= 4:
                task.depends_on(out[i - 4])
            out.append(task)
        return out

    def test_faulted_run_bitwise(self):
        (reference, result), logs = _both_runs(
            self._resources, self._tasks,
            lambda: FaultInjector(self._plan()))
        _assert_bitwise_equal(reference, result)
        # Kill/requeue ordering: same crashes applied at the same
        # instants, killing the same number of in-flight tasks.
        assert logs[1] == logs[0]
        assert any(killed > 0 for _k, _t0, _t1, killed in logs[0])


# ---------------------------------------------------------------------
# The wide regime: tens of occupants sharing one lane.
# ---------------------------------------------------------------------

class TestWideLaneEquivalence:
    CAPACITY = 100.0

    def _resources(self):
        return {
            ResourceKind.GPU_SM: Resource(ResourceKind.GPU_SM,
                                          capacity=self.CAPACITY),
            ResourceKind.NET: Resource(ResourceKind.NET, capacity=30.0),
        }

    def _tasks(self, count):
        # All ``count`` tasks are ready at t=0 on the GPU lane.  Caps
        # alternate below the initial fair share (capacity / count),
        # above it, and unbounded, so every water-fill iteration caps
        # some tasks and re-shares the slack among the rest; a third
        # of the tasks chain into a NET phase to churn occupancy.
        fair = self.CAPACITY / count
        out = []
        for i in range(count):
            work = 5.0 + (i * 7919 % 97) / 3.0
            if i % 3 == 0:
                phase = Phase(ResourceKind.GPU_SM, work,
                              max_rate=fair * (0.2 + (i % 5) * 0.15))
            elif i % 3 == 1:
                phase = Phase(ResourceKind.GPU_SM, work,
                              max_rate=fair * (1.5 + (i % 4)))
            else:
                phase = Phase(ResourceKind.GPU_SM, work)
            phases = [phase]
            if i % 3 == 2:
                phases.append(Phase(ResourceKind.NET, 2.0 + i % 5))
            out.append(SimTask(f"w{i}", phases))
        return out

    def _plan(self, count):
        # The makespan grows with ``count``; this window opens while
        # nearly every task still occupies the lane and stays open
        # until only a handful remain, so scaled rebuilds see the
        # whole occupancy range.
        return FaultPlan(events=(
            FaultEvent(kind="straggler", time_s=0.05 * count,
                       duration_s=0.5 * count, severity=2.5),))

    @pytest.mark.parametrize("count", [20, 40, 60])
    def test_wide_lane_under_straggler_bitwise(self, count):
        (reference, result), logs = _both_runs(
            self._resources, lambda: self._tasks(count),
            lambda: FaultInjector(self._plan(count)))
        _assert_bitwise_equal(reference, result)
        assert logs[1] == logs[0]
        window = self._plan(count).events[0]
        assert result.makespan > window.time_s + window.duration_s


class _ProbeResource(Resource):
    """A resource that logs, for every reference allocation, its
    occupancy, whether anyone sat below fair share, and the scale."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen: list = []

    def allocate_rates(self, scale: float = 1.0) -> dict:
        if self.active:
            fair = self.capacity * min(1.0, max(scale, 0.0)) / len(
                self.active)
            self.seen.append((len(self.active),
                              any(task.current_phase.max_rate < fair
                                  for task in self.active), scale))
        return super().allocate_rates(scale)


class TestClimbingLaneEquivalence:
    """One GPU lane fed a task every 0.1 s by a NET chain: occupancy
    climbs from 1 past 100 and drains back to 1, crossing the masked
    fill's occupancy threshold both ways.  Short low-cap tasks come and
    go, so uniform and capped fills alternate while the lane is wide."""

    CAPACITY = 100.0
    COUNT = 120

    def _tasks(self):
        out = []
        feeder = None
        for i in range(self.COUNT):
            step = SimTask(f"s{i}", [Phase(ResourceKind.NET, 1.0)])
            if feeder is not None:
                step.depends_on(feeder)
            feeder = step
            if i % 8 == 0:
                phase = Phase(ResourceKind.GPU_SM, 0.1 + (i % 3) * 0.02,
                              max_rate=0.6)
            elif i % 4 == 1:
                phase = Phase(ResourceKind.GPU_SM, 40.0 + i * 13 % 30,
                              max_rate=self.CAPACITY / (20 + i % 50))
            elif i % 4 == 2:
                phase = Phase(ResourceKind.GPU_SM, 60.0 + i * 7919 % 97)
            else:
                phase = Phase(ResourceKind.GPU_SM, 80.0 + i * 31 % 53,
                              max_rate=self.CAPACITY / (3 + i % 7))
            work = SimTask(f"g{i}", [phase])
            work.depends_on(step)
            out += [step, work]
        return out

    def _run(self, plan=None):
        built = []

        def resources():
            built.append({
                ResourceKind.GPU_SM: _ProbeResource(ResourceKind.GPU_SM,
                                                    capacity=self.CAPACITY),
                ResourceKind.NET: Resource(ResourceKind.NET, capacity=10.0),
            })
            return built[-1]

        (reference, result), logs = _both_runs(
            resources, self._tasks,
            (lambda: FaultInjector(plan)) if plan else None)
        _assert_bitwise_equal(reference, result)
        if plan:
            assert logs[1] == logs[0]
        # built[0] is the reference's: only it calls allocate_rates.
        return built[0][ResourceKind.GPU_SM].seen, logs

    def test_climb_and_drain_bitwise(self):
        seen, _logs = self._run()
        occupancy = [n for n, _capped, _scale in seen]
        assert occupancy[0] == 1 and occupancy[-1] == 1
        assert max(occupancy) >= 80
        for wide in (False, True):
            assert {capped for n, capped, _scale in seen
                    if (n >= _MASK_MIN) == wide} == {False, True}
        flips = sum(a[1] != b[1] for a, b in zip(seen, seen[1:])
                    if min(a[0], b[0]) >= _MASK_MIN)
        assert flips >= 4

    def test_straggler_window_bitwise(self):
        seen, _logs = self._run(FaultPlan(events=(
            FaultEvent(kind="straggler", time_s=6.0, duration_s=20.0,
                       severity=2.5),)))
        assert {capped for n, capped, scale in seen
                if n >= _MASK_MIN and 0.0 < scale < 1.0} == {False, True}

    def test_crash_blackout_bitwise(self):
        # The crash strikes while ~90 tasks share the GPU lane: every
        # one is killed and requeued, then re-admitted into a blacked
        # out (scale 0) lane until the downtime ends.
        seen, logs = self._run(FaultPlan(events=(
            FaultEvent(kind="crash", time_s=10.0, duration_s=1.5),)))
        ((_kind, _t0, _t1, killed),) = logs[0]
        assert killed >= 20 + 1  # the NET feeder holds at most one
        assert any(n >= _MASK_MIN and scale == 0.0
                   for n, _capped, scale in seen)


class TestWindowRegrowEquivalence:
    """The engine's slot window through grow, shrink and grow again.

    A NET chain feeds one GPU task every 0.05 s: 300 of them pile up
    past 256 occupants (a 512-slot window).  A gate task waits on all
    but the 12 longest, so the lane drains to at most 16 (the window
    halves back to 64, moving occupants down) before the gate releases
    a second wave of 150 that climbs past 64 again.  One crash strikes
    at the peak, another just after the trough.  Every GPU task ends
    with a 0.01 s phase on a 1e15 CPU lane, whose completion threshold
    (1e3) stays in the slot it frees: an occupant moved into such a
    slot without its own threshold would complete at once."""

    CAPACITY = 100.0
    HOLD = 12
    FLASH = Phase(ResourceKind.CPU, 1e13)

    def _wave(self, out, prefix, count, gate=None):
        feeder = gate
        gpu = []
        for i in range(count):
            step = SimTask(f"{prefix}s{i}", [Phase(ResourceKind.NET, 1.0)])
            if feeder is not None:
                step.depends_on(feeder)
            feeder = step
            if i % 8 == 0:
                phase = Phase(ResourceKind.GPU_SM, 0.1 + (i % 3) * 0.02,
                              max_rate=0.6)
            elif i % 4 == 1:
                phase = Phase(ResourceKind.GPU_SM, 40.0 + i * 13 % 30,
                              max_rate=self.CAPACITY / (20 + i % 50))
            elif i % 4 == 2:
                phase = Phase(ResourceKind.GPU_SM, 60.0 + i * 7919 % 97)
            else:
                phase = Phase(ResourceKind.GPU_SM, 80.0 + i * 31 % 53,
                              max_rate=self.CAPACITY / (3 + i % 7))
            work = SimTask(f"{prefix}g{i}", [phase, self.FLASH])
            work.depends_on(step)
            out += [step, work]
            gpu.append(work)
        return gpu

    def _tasks(self):
        out = []
        first = self._wave(out, "a", 300)
        gate = SimTask("gate", [Phase(ResourceKind.NET, 1.0)])
        for task in sorted(first, key=lambda t: t.phases[0].work)[
                :-self.HOLD]:
            gate.depends_on(task)
        out.append(gate)
        self._wave(out, "b", 150, gate)
        return out

    def test_grow_shrink_grow_with_crashes_bitwise(self):
        built = []

        def resources():
            built.append({
                ResourceKind.GPU_SM: _ProbeResource(ResourceKind.GPU_SM,
                                                    capacity=self.CAPACITY),
                ResourceKind.NET: Resource(ResourceKind.NET, capacity=20.0),
                ResourceKind.CPU: Resource(ResourceKind.CPU, capacity=1e15),
            })
            return built[-1]

        plan = FaultPlan(events=(
            FaultEvent(kind="crash", time_s=20.0, duration_s=1.0),
            FaultEvent(kind="crash", time_s=262.0, duration_s=0.5)))
        (reference, result), logs = _both_runs(
            resources, self._tasks, lambda: FaultInjector(plan))
        _assert_bitwise_equal(reference, result)
        assert logs[1] == logs[0]
        # The first crash kills more than 256 occupants (a 512-slot
        # window), the second at most 64 (the window is back at 64).
        ((_k1, _a1, _b1, wide), (_k2, _a2, _b2, narrow)) = logs[0]
        assert wide > 256 and 0 < narrow <= 64
        occupancy = [n for n, _capped, _scale in built[0][
            ResourceKind.GPU_SM].seen]
        peak = occupancy.index(max(occupancy))
        trough = next(i for i in range(peak, len(occupancy))
                      if occupancy[i] <= 16)
        assert max(occupancy[trough:]) > 64
        assert 64 * result.event_count < result.swept_slots \
            < 512 * result.event_count


# ---------------------------------------------------------------------
# Real compiled plans: narrow W&D (the bench workloads) and a reduced
# wide CAN plan.
# ---------------------------------------------------------------------

def _compiled_plan_check(plan, iterations):
    # The reference runs SimTasks built independently from a fresh
    # graph, at the launch costs compile_plan applies; the engine runs
    # the cached table.  Each run gets freshly built resources.
    graph = IterationGraphBuilder(plan).build(iterations)
    tasks = oracle_sim_tasks(graph, *launch_costs(
        plan, graph.total_micro_ops / iterations))
    _summary, _table, resources = compile_plan(plan, iterations)
    reference = reference_run(resources, tasks, keep_finish_times=True,
                              record_tasks=True)
    _summary, table, resources = compile_plan(plan, iterations)
    result = engine_run(resources, table, keep_finish_times=True,
                        record_tasks=True)
    _assert_bitwise_equal(reference, result)
    return result


class TestCompiledPlanEquivalence:
    @pytest.mark.parametrize("scale,batch,iterations", [
        (0.05, 4000, 2),
        (0.2, 8000, 1),
    ])
    def test_bench_workload_bitwise(self, scale, batch, iterations):
        config = RunConfig(model="W&D", dataset="Product-1",
                           scale=scale, cluster="eflops:2",
                           batch_size=batch, iterations=iterations)
        planner = PicassoPlanner(config.picasso or PicassoConfig())
        plan = planner.plan(config.build_model(),
                            config.resolved_cluster(), batch)
        _compiled_plan_check(plan, iterations)

    def test_wide_plan_bitwise(self):
        # Tab. VIII's wide regime, reduced: CAN on Product-2 with its
        # fields duplicated twice, under TF-PS, one iteration.  Its
        # PCIe lane peaks at hundreds of concurrent transfers.
        model = can(product2(0.01).replicated(2))
        plan = framework_by_name("TF-PS").plan(model, eflops_cluster(2),
                                               2000)
        result = _compiled_plan_check(plan, 1)
        assert result.task_count > 1000
        assert math.isfinite(result.makespan)
        # The slot window grew past its 64-slot floor and shrank back:
        # it must reach the busiest lane's peak, yet the mean swept
        # width stays below it.
        peak = max(result.peak_occupancy.values())
        widest = max(_MIN_SLOTS, 1 << (peak - 1).bit_length())
        assert widest > _MIN_SLOTS
        assert _MIN_SLOTS * result.event_count < result.swept_slots \
            < widest * result.event_count
