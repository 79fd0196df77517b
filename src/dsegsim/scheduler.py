"""Filter-chain VM placement with a segment-minimizing final filter.

The scheduler dry-runs the hypervisor allocator's plan on each candidate
machine's own free-segment list, without changing it, and places the VM where
it would receive the fewest segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

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

    The baseline engine swaps ``free_list`` for a ``BuddyAllocator``, which
    offers the same ``free_bytes`` and ``free_runs``.
    """

    machine_id: int
    cores_total: int
    cores_free: int
    free_list: FreeSegmentList

    @property
    def free_bytes(self) -> int:
        return self.free_list.free_bytes


@dataclass(frozen=True)
class PlacementRequest:
    vm_id: str
    cores: int
    memory_bytes: int

    def __post_init__(self) -> None:
        if self.cores < 1 or self.memory_bytes <= 0:
            raise ValueError(
                f"request {self.vm_id}: cores={self.cores}, "
                f"memory_bytes={self.memory_bytes}"
            )


@dataclass
class SchedulerConfig:
    n: int = 3
    current_policy: AllocationPolicy = AllocationPolicy.SMALLEST_FIRST
    reselect_period: float = WEEK_SECONDS

    def __post_init__(self) -> None:
        if self.reselect_period <= 0:
            raise ValueError("reselect_period must be positive")


def filter_resources(machines: Iterable, request: PlacementRequest) -> list:
    """Keep machines with enough free cores and free memory (boundary inclusive)."""
    return [
        m
        for m in machines
        if m.cores_free >= request.cores and m.free_bytes >= request.memory_bytes
    ]


def filter_min_segments(
    candidates: Sequence[MachineView],
    request: PlacementRequest,
    policy: AllocationPolicy,
) -> int:
    """Choose the machine whose allocator would grant the fewest segments.

    Ties go to the machine with the most free bytes, then the lowest id.
    """
    keys = (
        (peek_segment_count(m.free_list, request.memory_bytes, policy),
         -m.free_bytes, m.machine_id)
        for m in candidates
    )
    best = min((key for key in keys if key[0] is not None), default=None)
    if best is None:
        raise NoCandidateError(f"no machine can host {request.vm_id}")
    return best[2]


def baseline_pick(candidates: Sequence, request: PlacementRequest) -> int:
    """Stock spread objective: most free cores, ties to the lowest id."""
    best = min(((-m.cores_free, m.machine_id) for m in candidates), default=None)
    if best is None:
        raise NoCandidateError(f"no machine can host {request.vm_id}")
    return best[1]
