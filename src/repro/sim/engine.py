"""The discrete-event engine executing operator DAGs on shared resources.

Execution model:

* Every task (a :class:`TaskTable` row, or a hand-built
  :class:`SimTask`) runs its phases in order; a phase occupies exactly
  one resource.
* A task becomes *ready* once all its predecessors finished; ready
  tasks are admitted to their first phase's resource, waiting FIFO if
  the resource has no free slot (the launch queue has one slot).
* Between events, every resource splits its capacity across occupants
  by water-filling; the engine advances to the earliest phase
  completion, logs the interval, and repeats.

The engine simulates a single worker node in detail.  Distributed
effects (collective communication volume, stragglers from skewed data)
enter through the phase costs the graph builder prices
(:mod:`repro.graph.builder`).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, count, repeat
from operator import itemgetter

import numpy as np

from repro.hardware.topology import NodeSpec
from repro.sim.resource import Phase, Resource, ResourceKind
from repro.sim.trace import TaskRecord, TraceRecorder

_EPS = 1e-12

#: Smallest width of the engine's slot window, which doubles when full.
_MIN_SLOTS = 64

#: Fill and dtype of each slot array: ``remaining`` (``inf`` keeps a free
#: slot inert), ``rate``, ``thresh``, lane id, then scratch buffers.
_SLOT_ARRAYS = ((np.inf, float), (1.0, float), (-1.0, float),
                (-1, np.int8), (0.0, float), (0.0, float), (False, bool))

#: Occupancy from which a lane's shared-rate fill is one masked numpy
#: write over the slot arrays instead of a per-occupant Python loop
#: (measured: the loop costs ~0.15 us per occupant, the masked write
#: ~2.5 us over 64-512 slots and ~8 us over 4,096).
_MASK_MIN = 16


class SimTask:
    """One schedulable unit: an operator instance with sequential phases.

    The hand-built form of a DAG node; :meth:`TaskTable.from_tasks`
    compiles a list of them for :meth:`Engine.run`, which never writes
    to them.  The progress fields (``indegree`` aside, which is the
    initial count) are for step-by-step drivers of :class:`Resource`.

    :param name: identifier for debugging and per-task metrics.
    :param phases: the resource demands, executed in order.  Zero-work
        phases complete immediately and are allowed (useful for pure
        control-flow nodes).
    :param tags: free-form metadata (layer name, op kind, ...), carried
        into results for breakdowns.
    """

    __slots__ = ("name", "phases", "tags", "succs", "indegree",
                 "_phase_index", "remaining", "finish_time", "start_time")

    def __init__(self, name: str, phases: list, tags: dict | None = None):
        self.name = name
        self.phases = list(phases)
        self.tags = tags or {}
        self.succs: list = []
        self.indegree = 0
        self._phase_index = 0
        self.remaining = self.phases[0].work if self.phases else 0.0
        self.finish_time: float | None = None
        self.start_time: float | None = None

    @property
    def current_phase(self) -> Phase:
        """The phase the task is currently executing or about to enter."""
        return self.phases[self._phase_index]

    @property
    def done_with_phases(self) -> bool:
        """Whether every phase has completed."""
        return self._phase_index >= len(self.phases)

    def advance_phase(self) -> bool:
        """Move to the next phase; return ``False`` when none remain."""
        self._phase_index += 1
        if self._phase_index >= len(self.phases):
            return False
        self.remaining = self.current_phase.work
        return True

    def depends_on(self, other: "SimTask") -> None:
        """Declare that this task cannot start before ``other`` finishes."""
        other.succs.append(self)
        self.indegree += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimTask({self.name!r}, phases={len(self.phases)})"


@dataclass(frozen=True, repr=False)
class TaskTable:
    """A compiled DAG: the engine's immutable input.

    Task ``i`` is row ``i`` of every field, and each field is a tuple
    of tuples of strings and numbers.  CPython's collector untracks
    such tuples, so a table costs it O(1) tracked objects however many
    tasks it holds, and a cache may keep thousands of them.  Every
    per-run value (indegree countdown, phase index, slot, times) lives
    in :meth:`Engine.run`'s own lists, so one table can be run any
    number of times.

    :param names: task names.
    :param phases: per task, ``(kind value, work, max_rate)`` rows in
        execution order.
    :param succs: per task, the ids of the tasks waiting on it, in the
        order their dependencies were declared; the order fixes the
        admission order of tasks that become ready together.
    :param indegree: per task, the dependency count before the run.
    :param tags: per task, its tags as ``(key, value)`` pairs.
    """

    __slots__ = ("names", "phases", "succs", "indegree", "tags")

    names: tuple
    phases: tuple
    succs: tuple
    indegree: tuple
    tags: tuple

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskTable({len(self.names)} tasks)"

    @classmethod
    def from_tasks(cls, tasks: list) -> "TaskTable":
        """Compile hand-built :class:`SimTask` objects, list order kept.

        Raises :class:`ValueError` when a task's successor is not in
        ``tasks``: it could never run, and its predecessor would have
        nothing to release.
        """
        ids = {id(task): tid for tid, task in enumerate(tasks)}
        phases, succs = [], []
        for task in tasks:
            row = []
            for succ in task.succs:
                tid = ids.get(id(succ))
                if tid is None:
                    raise ValueError(
                        f"task {succ.name!r} depends on {task.name!r} "
                        "but is not in the task list")
                row.append(tid)
            succs.append(tuple(row))
            phases.append(tuple([(phase.kind.value, phase.work,
                                  phase.max_rate)
                                 for phase in task.phases]))
        return cls(names=tuple([task.name for task in tasks]),
                   phases=tuple(phases), succs=tuple(succs),
                   indegree=tuple([task.indegree for task in tasks]),
                   tags=tuple([tuple(task.tags.items())
                               for task in tasks]))


@dataclass
class SimSummary:
    """Headline numbers of one engine run, as telemetry exports them."""

    makespan: float
    task_count: int
    event_count: int
    busy_seconds: dict = field(default_factory=dict)
    work_done: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Plain-dict snapshot for telemetry export and benchmarks."""
        return {
            "makespan": self.makespan,
            "task_count": self.task_count,
            "event_count": self.event_count,
            "busy_seconds": dict(self.busy_seconds),
            "work_done": dict(self.work_done),
        }


@dataclass
class SimResult:
    """Outcome of one engine run."""

    makespan: float
    recorder: TraceRecorder
    task_count: int
    event_count: int
    finish_times: dict = field(default_factory=dict)
    #: populated when the engine ran with ``record_tasks=True``.
    task_records: list = field(default_factory=list)
    #: run provenance manifest (see :mod:`repro.telemetry.provenance`),
    #: stamped by the :func:`repro.api.run` facade.
    provenance: dict = field(default_factory=dict)
    #: engine counters: water-fill recomputations, and per kind value
    #: the most occupants one allocation shared the resource among.
    lane_rebuilds: int = 0
    peak_occupancy: dict = field(default_factory=dict)
    #: the slot-window width each event swept, summed over events.
    swept_slots: int = 0

    def busy_fraction(self, kind: ResourceKind) -> float:
        """Fraction of the makespan the resource was occupied at all."""
        if self.makespan <= 0:
            return 0.0
        return min(1.0, self.recorder.trace(kind).busy_seconds / self.makespan)

    def mean_rate(self, kind: ResourceKind) -> float:
        """Average sustained rate on the resource over the makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.recorder.trace(kind).work_done / self.makespan

    def summary(self) -> SimSummary:
        """The :class:`SimSummary` of this run."""
        return SimSummary(
            makespan=self.makespan,
            task_count=self.task_count,
            event_count=self.event_count,
            busy_seconds={kind.value:
                          self.recorder.trace(kind).busy_seconds
                          for kind in self.recorder.kinds()},
            work_done={kind.value: self.recorder.trace(kind).work_done
                       for kind in self.recorder.kinds()})


def build_node_resources(node: NodeSpec, launch_slots: int = 4,
                         net_efficiency: float = 0.35,
                         pcie_efficiency: float = 0.5) -> dict:
    """Instantiate the per-worker resource set for a cluster node.

    One worker owns one GPU; the host-side resources (DRAM bandwidth,
    PCIe lanes, NIC) are divided evenly among the node's workers, which
    is how co-located workers contend in practice.

    ``launch_slots`` models the framework's inter-op parallelism (TF
    executors dispatch from a small thread pool); ``net_efficiency`` is
    the achievable fraction of NIC line rate for collective traffic
    (protocol overhead, incast, synchronization).
    """
    share = max(1, node.gpus_per_node)
    resources = {
        ResourceKind.LAUNCH: Resource(
            ResourceKind.LAUNCH, capacity=float(launch_slots),
            slots=launch_slots),
        ResourceKind.CPU: Resource(
            ResourceKind.CPU, capacity=node.cpu.fp32_flops / share),
        ResourceKind.GPU_SM: Resource(
            ResourceKind.GPU_SM, capacity=node.gpu.fp32_flops),
        ResourceKind.HBM: Resource(
            ResourceKind.HBM, capacity=node.gpu.hbm_bandwidth),
        ResourceKind.DRAM: Resource(
            ResourceKind.DRAM, capacity=node.dram.bandwidth / share),
        ResourceKind.PCIE: Resource(
            ResourceKind.PCIE,
            capacity=node.pcie.bandwidth * pcie_efficiency),
        ResourceKind.NET: Resource(
            ResourceKind.NET,
            capacity=node.network.bandwidth * net_efficiency / share),
    }
    if node.nvlink is not None:
        resources[ResourceKind.NVLINK] = Resource(
            ResourceKind.NVLINK, capacity=node.nvlink.bandwidth)
    return resources


class _Lane:
    """One resource's occupants, wait queue and cached rate allocation.

    The water-filling allocation is a pure function of the occupant
    list and the fault scale, so a lane caches it and only recomputes
    when membership or scale actually changed (the ``dirty`` flag).
    ``caps`` holds one ``(max_rate, admission number, task id)`` entry
    per occupant, kept sorted so every water-fill iteration's capped
    set is a prefix; it is the lane's occupant set, so its length is
    the occupancy ``slots`` bounds, and tasks beyond it wait FIFO in
    ``queue``.  ``capped`` maps the task ids the last fill
    capped to negative keys in :meth:`Resource.allocate_rates` order;
    the uncapped rest follow in admission order, keyed by admission
    number — together the order the engine emits completions in.
    """

    __slots__ = ("capacity", "slots", "queue", "index", "caps", "capped",
                 "total", "scale", "dirty", "live", "peak", "busy", "work",
                 "trace", "seg_append")

    def __init__(self, resource: Resource, trace, index: int):
        self.capacity = resource.capacity
        self.slots = resource.slots
        self.queue: deque = deque()
        #: the resource's rank in the engine's resources dict; also
        #: its id in the per-slot lane array.
        self.index = index
        self.caps: list = []
        self.capped: dict = {}
        self.total = 0.0
        self.peak = 0
        self.scale = 1.0
        self.dirty = False
        #: whether the lane had occupants at its last rebuild; live
        #: lanes are the only ones the trace step visits.
        self.live = False
        # Trace accumulators, folded in event order exactly as
        # ``TraceRecorder.add_interval`` would; flushed into the
        # ResourceTrace at the end of the run.
        self.busy = 0.0
        self.work = 0.0
        self.trace = trace
        self.seg_append = trace.segments.append


class Engine:
    """Runs a :class:`TaskTable` (or a :class:`SimTask` list) to completion.

    Every active task's remaining work lives in a flat numpy slot
    array, per-resource rate allocations are cached until membership
    changes, and each event advances with a handful of whole-array
    operations.  The test suite checks every observable — makespans,
    utilization traces, task records, fault kill/requeue ordering —
    bit for bit against a per-event Python reference loop built on
    :meth:`Resource.allocate_rates`.
    """

    def __init__(self, resources: dict):
        """:param resources: mapping of kind -> :class:`Resource`."""
        self.resources = resources

    def run(self, tasks, keep_finish_times: bool = False,
            record_tasks: bool = False, injector=None) -> SimResult:
        """Execute ``tasks`` and return timing plus utilization traces.

        ``tasks`` is a :class:`TaskTable` or a list of :class:`SimTask`
        (compiled with :meth:`TaskTable.from_tasks`, which raises
        :class:`ValueError` on a successor missing from the list).
        Neither is written to: every per-run value lives in lists
        indexed by task id, so a compiled table can be cached and run
        again.

        With ``record_tasks=True`` the result additionally carries one
        :class:`~repro.sim.trace.TaskRecord` per task (dependency
        names, per-phase execution segments) — the raw feed for
        :mod:`repro.telemetry`'s trace export and critical-path
        analysis.  Purely additive: scheduling decisions are identical
        either way.

        ``injector`` (a :class:`~repro.faults.inject.FaultInjector`)
        perturbs the run: per-kind capacity scaling over fault windows
        (stragglers, degraded links, crash blackouts) and, at each
        crash, kill-and-requeue of every in-flight task — the current
        phase's partial progress is lost and the task re-enters its
        resource queue.  Event stepping is exact: time advances to the
        earliest of the next phase completion and the next fault
        boundary, so capacity changes never smear across a window edge.

        Raises :class:`RuntimeError` on dependency cycles (detected as a
        stall with unfinished tasks) and :class:`KeyError` when a phase
        references a resource kind this engine was not built with.

        Design (see DESIGN.md "Engine internals"):

        * per-task state (indegree countdown, phase index, slot, start
          and finish times) lives in lists indexed by task id, and each
          resource's :class:`_Lane` holds its occupants and wait queue;
        * every *active* task owns a slot in flat float64 arrays
          (``remaining``/``rate``/``thresh``), swept over a power-of-two
          window that holds every occupant and halves once a quarter of
          it does, so per-event cost tracks live occupancy.  Inactive
          slots hold ``remaining = inf``, which keeps them inert under
          every whole-array op whatever rate, threshold and lane id
          they last held;
        * per-resource allocations live in the lanes' caches,
          recomputed only when occupancy or the fault scale changes.  A
          lane keeps its occupants sorted by rate cap, so the common
          "nobody is capped" fill is one compare plus one masked write
          over a per-slot lane-id array, and a capped fill touches only
          the capped prefix;
        * each event is one fused sweep — divide / min for the next
          completion, multiply / subtract for the work drain, a
          compare + ``nonzero`` for completions — instead of an
          O(resources x occupants) Python scan.

        The results match the per-event scalar reference bit for bit
        because elementwise float64 numpy arithmetic (divide, multiply,
        subtract) rounds identically to Python scalar arithmetic,
        min/compare operations pick values without rounding, and every
        order-sensitive reduction (the budget subtraction, the recorder
        totals, completion emission) runs in
        :meth:`Resource.allocate_rates` order.  No output depends on a
        slot number, so moving occupants between slots changes none.
        """
        table = (tasks if isinstance(tasks, TaskTable)
                 else TaskTable.from_tasks(tasks))
        names = table.names
        phases = table.phases
        succs = table.succs
        tags = table.tags
        total = len(names)
        resources = self.resources
        res_items = list(resources.items())
        recorder = TraceRecorder(
            {kind: res.capacity for kind, res in res_items})
        now = 0.0
        events = 0
        rebuilds = 0
        finished = 0
        running: set = set()
        running_add = running.add
        records: list = []
        segment_start: dict = {}
        segments: dict = {}
        pred_names: list = []
        if record_tasks:
            pred_names = [[] for _ in names]
            for name, task_succs in zip(names, succs):
                for succ in task_succs:
                    pred_names[succ].append(name)

        # --- per-run task state, indexed by task id ---------------------
        indegree = list(table.indegree)
        phase_index = [0] * total
        #: the task's slot while it is active (stale otherwise).
        task_slot = [-1] * total
        start_time: list = [None] * total
        finish_time: list = [None] * total

        # --- flat slot state -------------------------------------------------
        #: the sweep window: slots ``[0, hi)`` hold every occupant, and
        #: ``free_slots`` (popped LIFO) lists exactly its free ones.
        hi = _MIN_SLOTS
        #: window widths swept, summed over the events up to ``mark``.
        swept = mark = 0
        #: the slot arrays at full capacity; the names below are their
        #: ``[:hi]`` views, and slot writes go through those.
        full = [np.full(hi, fill, dtype) for fill, dtype in _SLOT_ARRAYS]
        remaining, rate, thresh, slot_lane, buf_eta, buf_tmp, buf_cmp = full
        slot_task: list = [None] * hi
        #: the occupant's admission number per slot.
        slot_seq: list = [0] * hi
        free_slots = list(range(hi - 1, -1, -1))
        lane_list = [_Lane(res, recorder.trace(kind), index)
                     for index, (kind, res) in enumerate(res_items)]
        lanes = dict(zip(resources, lane_list))
        #: the lane per kind value (the phase rows' key).
        lane_of = {kind.value: lane for kind, lane in lanes.items()}
        #: lanes whose allocation must be recomputed before the next
        #: event (appended at most once each — the ``dirty`` flag).
        dirty_lanes: list = []
        dirty_append = dirty_lanes.append
        #: lanes with occupants, maintained by ``rebuild``; the per-event
        #: trace step walks these instead of re-deriving a totals dict.
        live_lanes: list = []
        next_seq = count().__next__
        by_seq = itemgetter(1)

        def set_window(width: int) -> None:
            """Resize the window to ``width``: bill the events swept at
            the old width, grow the arrays past their capacity, and
            rebind the views and the sweep's bound methods."""
            nonlocal hi, swept, mark, full, remaining, rate, thresh
            nonlocal slot_lane, buf_eta, buf_tmp, buf_cmp
            nonlocal eta_argmin, eta_item, cmp_nonzero
            swept += hi * (events - mark)
            mark = events
            hi = width
            size = len(slot_task)
            if hi > size:
                full = [np.concatenate([array, np.full(size, fill, dtype)])
                        for array, (fill, dtype) in zip(full, _SLOT_ARRAYS)]
                slot_task.extend([None] * size)
                slot_seq.extend([0] * size)
            (remaining, rate, thresh, slot_lane,
             buf_eta, buf_tmp, buf_cmp) = [array[:hi] for array in full]
            eta_argmin = buf_eta.argmin
            eta_item = buf_eta.item
            cmp_nonzero = buf_cmp.nonzero

        def shrink() -> None:
            """Halve the window while a quarter of it holds every
            occupant, moving those above the new top to free slots
            below it."""
            width = hi
            while width > _MIN_SLOTS and len(running) <= width // 4:
                width //= 2
            low = [slot for slot in free_slots if slot < width]
            for tid in running:
                slot = task_slot[tid]
                if slot >= width:
                    new = low.pop()
                    task_slot[tid] = new
                    slot_task[new] = tid
                    slot_task[slot] = None
                    slot_seq[new] = slot_seq[slot]
                    for array in (slot_lane, rate, thresh, remaining):
                        array[new] = array[slot]
                    remaining[slot] = np.inf
            free_slots[:] = low
            set_window(width)

        def occupy(tid: int, phase: tuple, lane: _Lane) -> None:
            """Seat ``tid``, entering ``phase``, on ``lane``: admission
            number, sorted-caps entry, slot and lane id."""
            if not free_slots:
                free_slots.extend(range(2 * hi - 1, hi - 1, -1))
                set_window(2 * hi)
            slot = free_slots.pop()
            task_slot[tid] = slot
            slot_task[slot] = tid
            seq = next_seq()
            slot_seq[slot] = seq
            slot_lane[slot] = lane.index
            insort(lane.caps, (phase[2], seq, tid))
            if not lane.dirty:
                lane.dirty = True
                dirty_append(lane)
            remaining[slot] = phase[1]
            running_add(tid)
            if record_tasks:
                segment_start[tid] = now
            if start_time[tid] is None:
                start_time[tid] = now

        def drain_queue(lane: _Lane) -> None:
            queue = lane.queue
            while queue and (lane.slots is None
                             or len(lane.caps) < lane.slots):
                tid = queue.popleft()
                occupy(tid, phases[tid][phase_index[tid]], lane)

        def deactivate(tid: int) -> None:
            slot = task_slot[tid]
            slot_task[slot] = None
            remaining[slot] = np.inf
            free_slots.append(slot)
            running.discard(tid)

        def rebuild(lane: _Lane) -> None:
            """Recompute one resource's water-fill allocation.

            Reproduces ``Resource.allocate_rates`` op for op from the
            sorted caps: iteration ``k`` caps exactly the prefix below
            its fair share, whose caps are subtracted from the budget
            in admission order, so every rate and the ``lane.total``
            fold are bit-identical; then scatters rates and completion
            thresholds into the slot arrays.  Also maintains
            ``live_lanes`` membership and the lane's peak occupancy.
            """
            lane.dirty = False
            caps = lane.caps
            n = len(caps)
            if n > lane.peak:
                lane.peak = n
            if lane.capped:
                lane.capped = {}
            if not n:
                lane.total = 0.0
                if lane.live:
                    live_lanes.remove(lane)
                    lane.live = False
                return
            if not lane.live:
                live_lanes.append(lane)
                lane.live = True
            scale = lane.scale
            if scale == 1.0:
                budget = lane.capacity
                if n == 1:
                    # One occupant at full capacity: ``fair = budget/1``
                    # is exact, so the water-fill collapses to one min.
                    # Kept because ~30% of allocations on the narrow
                    # W&D plan have one occupant (a ~5% loop-time win);
                    # a two-occupant shortcut measured as noise.
                    max_rate, _seq, tid = caps[0]
                    task_rate = max_rate if max_rate < budget else budget
                    lane.total = task_rate
                    slot = task_slot[tid]
                    rate[slot] = task_rate
                    thresh[slot] = _EPS * (task_rate if task_rate > 1.0
                                           else 1.0)
                    return
                fair = budget / n
            elif scale <= 0.0:
                budget = None  # blackout: every occupant stalls
                fair = 0.0
            else:
                budget = lane.capacity * min(1.0, float(scale))
                fair = budget / n
            lo = 0
            capped_rates = ()
            if budget is not None and caps[0][0] < fair:
                capped_tasks = []
                capped_rates = []
                while True:
                    hi = bisect_left(caps, (fair,), lo)
                    if hi == lo:
                        break
                    newly = caps[lo:hi]
                    newly.sort(key=by_seq)
                    for max_rate, _seq, tid in newly:
                        capped_tasks.append(tid)
                        capped_rates.append(max_rate)
                        budget -= max_rate
                    lo = hi
                    if budget <= 0:
                        fair = 1e-12  # starved survivors, as the reference
                        break
                    if lo == n:
                        break
                    fair = budget / (n - lo)
                lane.capped = dict(zip(capped_tasks, range(-lo, 0)))
                lane.total = sum(chain(capped_rates, repeat(fair, n - lo)))
            else:
                lane.total = sum(repeat(fair, n))
            if lo < n:
                # The uncapped rest share ``fair``; a wide lane's masked
                # write also covers the capped prefix, rewritten below.
                limit = _EPS * (fair if fair > 1.0 else 1.0)
                if n >= _MASK_MIN:
                    np.equal(slot_lane, lane.index, out=buf_cmp)
                    np.putmask(rate, buf_cmp, fair)
                    np.putmask(thresh, buf_cmp, limit)
                else:
                    for _cap, _seq, tid in (caps[lo:] if lo else caps):
                        slot = task_slot[tid]
                        rate[slot] = fair
                        thresh[slot] = limit
            if capped_rates:
                for tid, task_rate in zip(capped_tasks, capped_rates):
                    slot = task_slot[tid]
                    rate[slot] = task_rate
                    thresh[slot] = _EPS * (task_rate if task_rate > 1.0
                                           else 1.0)

        def end_segment(tid: int) -> None:
            if record_tasks:
                start = segment_start.pop(tid)
                segments.setdefault(tid, []).append(
                    (phases[tid][phase_index[tid]][0], start, now))

        def admit(tid: int) -> bool:
            """Occupy or queue ``tid`` on its next phase with work;
            False if none is left (the caller then completes it)."""
            task_phases = phases[tid]
            n_phases = len(task_phases)
            index = phase_index[tid]
            while True:
                if index >= n_phases:
                    return False
                phase = task_phases[index]
                if phase[1] <= 0:
                    index += 1
                    phase_index[tid] = index
                    continue
                break
            lane = lane_of[phase[0]]
            if lane.slots is None or len(lane.caps) < lane.slots:
                occupy(tid, phase, lane)
            else:
                lane.queue.append(tid)
                if start_time[tid] is None:
                    start_time[tid] = now
            return True

        def finish(tid: int) -> None:
            nonlocal finished
            finish_time[tid] = now
            finished += 1
            if record_tasks:
                start = start_time[tid]
                records.append(TaskRecord(
                    name=names[tid],
                    start=start if start is not None else now,
                    end=now,
                    preds=tuple(pred_names[tid]),
                    tags=dict(tags[tid]),
                    segments=tuple(segments.pop(tid, ()))))

        def complete(tid: int) -> None:
            """Finish ``tid``, then admit the successors it releases.
            One with no work left finishes too, and its successors are
            walked before its next sibling: on a stack, not by
            recursion, so no zero-work chain is too long."""
            finish(tid)
            stack = [iter(succs[tid])]
            while stack:
                for succ in stack[-1]:
                    indegree[succ] -= 1
                    if indegree[succ] == 0 and not admit(succ):
                        finish(succ)
                        stack.append(iter(succs[succ]))
                        break
                else:
                    stack.pop()

        # Snapshot the initial ready set first: admitting a zero-work
        # task can cascade completions that drop other tasks' indegree
        # to zero, and those are already admitted by the cascade.
        initially_ready = [tid for tid in range(total) if not indegree[tid]]
        for tid in initially_ready:
            if not admit(tid):
                complete(tid)

        def kill_in_flight() -> int:
            """Crash semantics: every in-flight task loses its current
            phase's progress and re-enters its resource queue."""
            killed = 0
            for lane in lane_list:
                caps = lane.caps
                if caps:
                    # Admission order; aborted occupancies stay visible.
                    for _cap, _seq, tid in sorted(caps, key=by_seq):
                        end_segment(tid)
                        deactivate(tid)
                        lane.queue.append(tid)
                    killed += len(caps)
                    caps.clear()
                    if not lane.dirty:
                        lane.dirty = True
                        dirty_append(lane)
                drain_queue(lane)
            return killed

        isfinite = math.isfinite
        np_divide = np.divide
        np_multiply = np.multiply
        np_subtract = np.subtract
        np_less_equal = np.less_equal
        running_discard = running.discard
        free_append = free_slots.append
        # 0-d staging array for the scalar dt: feeding an ndarray to the
        # ufunc skips the per-call Python-float boxing.
        dt_arr = np.empty(())
        eta_argmin = buf_eta.argmin
        eta_item = buf_eta.item
        cmp_nonzero = buf_cmp.nonzero
        with np.errstate(divide="ignore"):
            while running:
                events += 1
                if injector is not None:
                    for kind, lane in lanes.items():
                        if lane.caps:
                            scale = injector.scale(kind, now)
                            if scale != lane.scale:
                                lane.scale = scale
                                if not lane.dirty:
                                    lane.dirty = True
                                    dirty_append(lane)
                if dirty_lanes:
                    rebuilds += len(dirty_lanes)
                    for lane in dirty_lanes:
                        rebuild(lane)
                    del dirty_lanes[:]
                np_divide(remaining, rate, out=buf_eta)
                dt = eta_item(eta_argmin())
                if injector is not None:
                    boundary = injector.next_boundary(now)
                    if isfinite(boundary):
                        dt = min(dt, max(boundary - now, 0.0))
                if not isfinite(dt):
                    raise RuntimeError(
                        "simulation stalled with running tasks")
                if dt < 0.0:
                    dt = 0.0
                previous = now
                if dt > 0.0:
                    end = now + dt
                    dtp = end - now
                    if dtp > 0.0:
                        # ``recorder.add_interval``, unrolled over
                        # the live lanes; same fold order per
                        # kind, so the accumulators round identically.
                        for lane in live_lanes:
                            lane_total = lane.total
                            if lane_total > 0.0:
                                lane.busy += dtp
                                lane.work += lane_total * dtp
                                lane.seg_append((now, end, lane_total))
                    now = end

                dt_arr[...] = dt
                np_multiply(rate, dt_arr, out=buf_tmp)
                np_subtract(remaining, buf_tmp, out=remaining)
                np_less_equal(remaining, thresh, out=buf_cmp)
                hits = cmp_nonzero()[0]
                if hits.shape[0]:
                    if hits.shape[0] == 1:
                        completed_phase = [slot_task[hits.item(0)]]
                    else:
                        # Emit in the reference order — resource rank,
                        # then allocation position within the lane —
                        # keying the hit tasks only (keys are unique).
                        keyed = []
                        for slot in hits.tolist():
                            tid = slot_task[slot]
                            lane = lane_of[phases[tid][phase_index[tid]][0]]
                            keyed.append((lane.index, lane.capped.get(
                                tid, slot_seq[slot]), tid))
                        keyed.sort()
                        completed_phase = [entry[2] for entry in keyed]
                    for tid in completed_phase:
                        task_phases = phases[tid]
                        index = phase_index[tid]
                        kind, _work, max_rate = task_phases[index]
                        lane = lane_of[kind]
                        if record_tasks:
                            end_segment(tid)
                        slot = task_slot[tid]
                        caps = lane.caps
                        del caps[bisect_left(caps,
                                             (max_rate, slot_seq[slot]))]
                        if caps or lane.queue:
                            if not lane.dirty:
                                lane.dirty = True
                                dirty_append(lane)
                        elif lane.dirty:
                            pass  # queued rebuild will clear the lane
                        else:
                            # Lane emptied: clear the allocation inline
                            # instead of queueing a rebuild.
                            lane.total = 0.0
                            if lane.live:
                                live_lanes.remove(lane)
                                lane.live = False
                        # deactivate(tid), inlined
                        slot_task[slot] = None
                        remaining[slot] = np.inf
                        free_append(slot)
                        running_discard(tid)
                        if lane.queue:
                            drain_queue(lane)
                        index += 1
                        phase_index[tid] = index
                        if index >= len(task_phases) or not admit(tid):
                            complete(tid)
                    if hi > _MIN_SLOTS and len(running) <= hi // 4:
                        shrink()

                if injector is not None:
                    for event in injector.crashes_between(previous, now):
                        injector.record(event, now, kill_in_flight())

        # Flush the per-lane trace accumulators into the recorder the
        # callers see; folding happened in event order, so every
        # float is byte-identical to an add_interval stream.
        for lane in lane_list:
            lane.trace.busy_seconds = lane.busy
            lane.trace.work_done = lane.work
        swept += hi * (events - mark)

        if finished != total:
            stuck = total - finished
            raise RuntimeError(
                f"{stuck} task(s) never became ready; dependency cycle?")
        finish_times = {}
        if keep_finish_times:
            finish_times = dict(zip(names, finish_time))
        return SimResult(makespan=now, recorder=recorder,
                         task_count=total, event_count=events,
                         finish_times=finish_times, task_records=records,
                         lane_rebuilds=rebuilds,
                         peak_occupancy={kind.value: lane.peak
                                         for kind, lane in lanes.items()},
                         swept_slots=swept)
