"""Filter-chain VM placement with a segment-minimizing final filter.

The segment-aware scheduler places each VM where the hypervisor allocator
would grant it the fewest segments; ties go to the machine with the most free
bytes, then the lowest id. The baseline instead takes the most free cores.
Both walk a placement index of machines ordered by free bytes (by free cores
on the baseline) with ``fitting_machines``, which returns the first machine
with enough free cores and free bytes whose largest free segment covers a
threshold, and the fitting machines it walked past, in that tie-break order.
The baseline's threshold of 0 takes the first fit. The segment variants'
threshold is the demand, so the first fit grants one segment, the minimum;
only when none does they run ``filter_min_segments`` over the walked
machines, which dry-runs the allocator's plan on each candidate's own
free-segment list without changing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .segments import AllocationPolicy, FreeSegmentList, peek_segment_count

WEEK_SECONDS = 7 * 24 * 3600


class NoCandidateError(Exception):
    """Every machine was filtered out or infeasible: the VM is rejected."""


class SimVariant(Enum):
    """Which scheduler/allocator combination a simulation exercises."""

    BASELINE = "baseline"        # stock spread scheduler + buddy allocator
    PLACEMENT_OPT1 = "opt1"      # min-segment placement, smallest-first composition
    PLACEMENT_OPT2 = "opt2"      # min-segment placement, largest-first composition
    DYNAMIC = "dynamic"          # min-segment placement, periodically reselected policy


@dataclass
class MachineView:
    """Scheduler-side view of one machine: cores plus its free-segment list.

    On the baseline, the engine swaps ``free_list`` at the machine's first
    grant for its own copy of its shape's ``BuddyAllocator`` seed, which
    offers the same ``free_bytes`` and ``free_runs``.
    """

    machine_id: int
    cores_free: int
    free_list: FreeSegmentList

    @property
    def free_bytes(self) -> int:
        return self.free_list.free_bytes


@dataclass
class SchedulerConfig:
    n: int = 3
    current_policy: AllocationPolicy = AllocationPolicy.SMALLEST_FIRST
    reselect_period: float = WEEK_SECONDS

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (math.isfinite(self.reselect_period) and self.reselect_period > 0):
            raise ValueError(
                f"reselect_period must be finite and positive, got {self.reselect_period}"
            )


def filter_min_segments(
    candidates: Sequence[MachineView], memory: int, policy: AllocationPolicy
) -> int:
    """Choose the machine whose allocator would grant ``memory`` bytes in the
    fewest segments. Ties go to the machine with the most free bytes, then
    the lowest id.
    """
    keys = [
        (count, -m.free_bytes, m.machine_id)
        for m in candidates
        if (count := peek_segment_count(m.free_list, memory, policy)) is not None
    ]
    if not keys:
        raise NoCandidateError(f"no machine can grant {memory} bytes")
    return min(keys)[2]


def fitting_machines(
    machines: Sequence[MachineView],
    index: Sequence[tuple[int, int]],
    cores: int,
    memory: int,
    stop: int,
    segment: int,
) -> tuple[MachineView | None, list[MachineView]]:
    """Walk ``index`` for the machines with at least ``cores`` free cores
    and ``memory`` free bytes, and return the first whose largest free
    segment covers ``segment`` bytes, None if none does, with the fitting
    machines walked past before it, in walk order.

    ``index`` holds ``(-free, machine_id)`` for every machine, ascending,
    where ``free`` is the amount of the resource keying the index. The walk
    stops at the first entry with less free than ``stop``, the start's
    demand of that resource. A ``segment`` of 0 takes the first fitting
    machine without reading its free list, which may be a
    ``BuddyAllocator``."""
    walked = []
    for neg_free, machine_id in index:
        if -neg_free < stop:
            break
        m = machines[machine_id]
        if m.cores_free >= cores and m.free_list.free_bytes >= memory:
            if not segment or m.free_list.max_segment >= segment:
                return m, walked
            walked.append(m)
    return None, walked
