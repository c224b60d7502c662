"""Hardware resources and work phases for the discrete-event engine.

A *resource* is anything with a finite capacity a training step can
saturate: the kernel-launch path, GPU SMs (FLOP/s), memory and
interconnect bandwidths (B/s).  A *phase* is one contiguous demand a
task places on a single resource; tasks execute their phases in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class ResourceKind(str, Enum):
    """The hardware resource classes the paper's analysis uses (Fig. 4)."""

    LAUNCH = "launch"  # host-side kernel/op issue path (seconds of issue work)
    CPU = "cpu"  # host compute (FLOP/s)
    GPU_SM = "gpu_sm"  # device compute (FLOP/s)
    HBM = "hbm"  # device memory bandwidth (B/s)
    DRAM = "dram"  # host memory bandwidth (B/s)
    PCIE = "pcie"  # host<->device link (B/s)
    NVLINK = "nvlink"  # device<->device link (B/s)
    NET = "net"  # inter-node network (B/s)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResourceKind.{self.name}"


#: Resource classes that count as "communication" in the paper's breakdowns.
COMMUNICATION_KINDS = frozenset({ResourceKind.NET, ResourceKind.NVLINK})

#: Resource classes that count as "memory access" in the breakdowns.
MEMORY_KINDS = frozenset(
    {ResourceKind.HBM, ResourceKind.DRAM, ResourceKind.PCIE})

#: Resource classes that count as "computation" in the breakdowns.
COMPUTE_KINDS = frozenset({ResourceKind.GPU_SM, ResourceKind.CPU})

#: Resource classes on which a *kernel* executes — compute units plus
#: the memory channels that memory-bound kernels (gather, stitch, hash
#: probes) keep busy.  This is the DCGM-flavoured "device is doing
#: useful work" definition behind Fig. 11's utilization plots; the
#: transfer fabrics (PCIe, NVLink, NIC) are excluded because time on
#: them is a fetch in flight, not a kernel resident.
EXECUTION_KINDS = frozenset({ResourceKind.GPU_SM, ResourceKind.CPU,
                             ResourceKind.HBM, ResourceKind.DRAM})


@dataclass(frozen=True)
class Phase:
    """One contiguous demand on a single resource.

    :param kind: which resource the phase consumes.
    :param work: amount of work in the resource's unit (bytes for
        bandwidths, FLOPs for compute, seconds for ``LAUNCH``).
    :param max_rate: the fastest this phase alone can drive the
        resource; a single small transfer cannot saturate PCIe, so its
        ``max_rate`` is below the link capacity.  Defaults to unbounded.
    """

    kind: ResourceKind
    work: float
    max_rate: float = math.inf

    def __post_init__(self) -> None:
        if self.work < 0:
            raise ValueError(f"phase work must be >= 0, got {self.work}")
        if self.max_rate <= 0:
            raise ValueError(f"max_rate must be > 0, got {self.max_rate}")


class Resource:
    """A finite-capacity resource with water-filling processor sharing.

    ``slots`` bounds how many tasks may occupy the resource at once;
    excess tasks wait in FIFO order.  ``slots=1`` models a serialized
    path such as the kernel-launch queue.
    """

    def __init__(self, kind: ResourceKind, capacity: float,
                 slots: int | None = None, name: str | None = None):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if slots is not None and slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.kind = kind
        self.capacity = float(capacity)
        self.slots = slots
        self.name = name or kind.value
        # Occupants and the FIFO of tasks waiting for a slot, both
        # driver-managed: task ids under ``Engine.run``, ``SimTask``
        # objects for :meth:`allocate_rates`.
        self.active: list = []
        self.queue: list = []

    def has_free_slot(self) -> bool:
        """Whether another task may start executing immediately."""
        return self.slots is None or len(self.active) < self.slots

    def allocate_rates(self, scale: float = 1.0) -> dict:
        """Water-filling allocation of capacity across active tasks.

        Tasks whose ``max_rate`` is below their fair share keep their
        ``max_rate``; the slack is redistributed among the remaining
        tasks until the capacity is exhausted or every task is capped.
        Returns a mapping of task -> rate (resource units per second).

        :param scale: transient capacity multiplier in ``[0, 1]`` (a
            fault injector's straggler/blackout windows); ``0`` stalls
            every occupant without evicting it.
        """
        if not self.active:
            return {}
        if scale <= 0.0:
            return {task: 0.0 for task in self.active}
        rates: dict = {}
        remaining = list(self.active)
        budget = self.capacity * min(1.0, float(scale))
        # Iterate: cap the slowest-demand tasks first, then re-share.
        while remaining:
            fair = budget / len(remaining)
            capped = [t for t in remaining
                      if t.current_phase.max_rate < fair]
            if not capped:
                for task in remaining:
                    rates[task] = fair
                break
            for task in capped:
                rates[task] = task.current_phase.max_rate
                budget -= task.current_phase.max_rate
            remaining = [t for t in remaining if t not in rates]
            if budget <= 0:
                for task in remaining:
                    rates[task] = 1e-12  # starved; should not happen
                break
        return rates

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Resource({self.kind.value}, capacity={self.capacity:.3g}, "
                f"slots={self.slots})")
