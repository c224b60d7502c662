"""The operator DAG container and its compilation to a task table."""

from __future__ import annotations

from collections import deque

from repro.graph.op import Op
from repro.sim.engine import TaskTable
from repro.sim.resource import ResourceKind


class Graph:
    """A DAG of :class:`~repro.graph.op.Op` nodes.

    Edges express control/data dependencies.  The graph validates
    acyclicity on demand and compiles to a
    :class:`~repro.sim.engine.TaskTable` for execution.
    """

    def __init__(self, name: str = "graph"):
        self.name = name
        self.ops: list = []
        self._succs: dict = {}
        self._preds: dict = {}
        self._by_name: dict = {}

    def add(self, op: Op) -> Op:
        """Insert an op; names must be unique within the graph."""
        if op.name in self._by_name:
            raise ValueError(f"duplicate op name: {op.name}")
        self.ops.append(op)
        self._by_name[op.name] = op
        self._succs[op.name] = []
        self._preds[op.name] = []
        return op

    def add_edge(self, before: Op, after: Op) -> None:
        """Declare that ``after`` must wait for ``before``."""
        if before.name not in self._by_name or after.name not in self._by_name:
            raise KeyError("both ops must be added before linking")
        if before is after:
            raise ValueError(f"self-edge on {before.name}")
        self._succs[before.name].append(after.name)
        self._preds[after.name].append(before.name)

    def op(self, name: str) -> Op:
        """Look up an op by name."""
        return self._by_name[name]

    def successors(self, op: Op) -> list:
        """Ops depending on ``op``."""
        return [self._by_name[name] for name in self._succs[op.name]]

    def predecessors(self, op: Op) -> list:
        """Ops ``op`` depends on."""
        return [self._by_name[name] for name in self._preds[op.name]]

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def total_micro_ops(self) -> int:
        """Framework-level operation count (Tab. V's metric)."""
        return sum(op.micro_ops for op in self.ops)

    def ops_with_tag(self, key: str, value=None) -> list:
        """Ops carrying a tag (optionally with a specific value)."""
        if value is None:
            return [op for op in self.ops if key in op.tags]
        return [op for op in self.ops if op.tags.get(key) == value]

    def topological_order(self) -> list:
        """Kahn topological order; raises on cycles."""
        indegree = {op.name: len(self._preds[op.name]) for op in self.ops}
        queue = deque(name for name, degree in indegree.items()
                      if degree == 0)
        order = []
        while queue:
            name = queue.popleft()
            order.append(self._by_name[name])
            for succ in self._succs[name]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    queue.append(succ)
        if len(order) != len(self.ops):
            raise ValueError(f"graph {self.name!r} contains a cycle")
        return order

    def validate(self) -> None:
        """Raise :class:`ValueError` if the graph is cyclic."""
        self.topological_order()

    def to_task_table(self, launch_seconds_per_micro_op: float,
                      launch_floor: float = 0.0) -> TaskTable:
        """Compile to the engine's immutable :class:`TaskTable`.

        Each op gets a leading ``LAUNCH`` phase of
        ``micro_ops * launch_seconds_per_micro_op`` (plus ``launch_floor``
        per logical op), then its hardware phases.  Dependency edges are
        translated one-to-one: walking ops in graph order, each op is
        appended to its predecessors' successor rows.  That order (not
        ``add_edge`` order) decides which of several newly ready tasks
        is admitted first, so every committed result depends on it.
        """
        if launch_seconds_per_micro_op < 0:
            raise ValueError("launch cost must be >= 0")
        ops = self.ops
        index = {op.name: tid for tid, op in enumerate(ops)}
        launch_kind = ResourceKind.LAUNCH.value
        # Ops repeat across iterations and groups, so equal phase and
        # tag rows share one tuple: Tab. VII tables have 5-15x fewer
        # distinct rows than tasks, and sharing cuts their size ~60%.
        shared = {}.setdefault
        phases = []
        succs: list = [[] for _ in ops]
        for tid, op in enumerate(ops):
            rows = []
            launch = (op.micro_ops * launch_seconds_per_micro_op
                      + launch_floor)
            if launch > 0:
                # One op's dispatch occupies a single executor thread
                # (rate 1.0); parallelism only helps across ops.
                rows.append((launch_kind, launch, 1.0))
            for phase in op.phases:
                rows.append((phase.kind.value, phase.work, phase.max_rate))
            rows = tuple(rows)
            phases.append(shared(rows, rows))
            for pred in self._preds[op.name]:
                succs[index[pred]].append(tid)
        return TaskTable(
            names=tuple([op.name for op in ops]),
            phases=tuple(phases),
            succs=tuple([tuple(row) for row in succs]),
            indegree=tuple([len(self._preds[op.name]) for op in ops]),
            tags=tuple([shared(tags, tags) for tags in
                        (tuple(op.tags.items()) for op in ops)]))


def stamp_task_table(template: TaskTable, iterations: int,
                     head: TaskTable | None = None) -> TaskTable:
    """``iterations`` steps stamped from ``template``, the table of
    ``IterationGraphBuilder.build(1, first)``, after ``head`` (step 0's
    own table) if given.  See DESIGN.md "Compile: one iteration,
    stamped"."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    prefixes, suffixes = zip(*(name.split("/", 1)
                               for name in template.names))
    cut = prefixes.index(prefixes[-1])
    cross = {suffixes[p]: [succ - cut for succ in template.succs[p]]
             for p in range(cut)}
    before = () if head is None else [
        name.split("/", 1)[1] for name in head.names]
    known = set(before)
    # The first stamped step waits on no op the step before it lacks.
    first = list(template.indegree[cut:])
    for p in range(cut):
        if suffixes[p] not in known:
            for succ in template.succs[p]:
                first[succ - cut] -= 1
    steps = [(suffixes[cut:],
              [tuple([succ - cut for succ in row])
               for row in template.succs[cut:]],
              template.phases[cut:], template.tags[cut:])] * iterations
    indegrees = [first] + [template.indegree[cut:]] * (iterations - 1)
    if head is not None:
        steps[0] = (before, head.succs, head.phases, head.tags)
        indegrees = [head.indegree] + indegrees[:-1]
    names, succs, indegree, phases, tags = [], [], [], [], []
    base = 0
    for index, (step_names, rows, step_phases, step_tags) in enumerate(
            steps):
        width = len(step_names)
        if index + 1 < iterations:
            rows = [row + tuple([succ + width for succ in cross.get(s, ())])
                    for row, s in zip(rows, step_names)]
        names.extend([f"it{index}/{suffix}" for suffix in step_names])
        succs.extend([tuple([succ + base for succ in row]) for row in rows])
        indegree.extend(indegrees[index])
        phases.extend(step_phases)
        tags.extend(step_tags)
        base += width
    return TaskTable(names=tuple(names), phases=tuple(phases),
                     succs=tuple(succs), indegree=tuple(indegree),
                     tags=tuple(tags))
