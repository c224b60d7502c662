"""Discrete-event simulator of a GPU-centric training executor.

The engine executes operator DAGs against a set of finite hardware
resources (kernel-launch queue, GPU SMs, HBM, DRAM, PCIe, NVLink,
network).  Concurrent work on one resource shares its capacity
(water-filling processor sharing); the launch queue serializes kernel
issues, which is what makes fragmentary WDL graphs launch-bound.
"""

from repro.sim.resource import Phase, Resource, ResourceKind
from repro.sim.engine import (
    Engine,
    SimResult,
    SimSummary,
    SimTask,
    TaskTable,
    build_node_resources,
)
from repro.sim.trace import (
    FrozenTrace,
    ResourceTrace,
    TaskRecord,
    TraceRecorder,
)
from repro.sim.export import ascii_gantt, busy_summary, timeline_json
from repro.sim.metrics import (
    bandwidth_timeline,
    busy_fraction,
    utilization_cdf,
    utilization_timeline,
)

__all__ = [
    "Phase",
    "Resource",
    "ResourceKind",
    "Engine",
    "SimResult",
    "SimSummary",
    "SimTask",
    "TaskTable",
    "build_node_resources",
    "FrozenTrace",
    "ResourceTrace",
    "TaskRecord",
    "TraceRecorder",
    "bandwidth_timeline",
    "busy_fraction",
    "utilization_cdf",
    "utilization_timeline",
    "ascii_gantt",
    "busy_summary",
    "timeline_json",
]
