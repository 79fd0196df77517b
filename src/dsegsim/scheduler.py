"""Filter-chain VM placement with a segment-minimizing final filter.

The segment-aware scheduler places each VM where the hypervisor allocator
would grant it the fewest segments; ties go to the machine with the most free
bytes, then the lowest id. The baseline instead takes the most free cores.
Both read their candidates from ``fitting_machines``, a walk over a placement
index of machines ordered by free bytes (by free cores on the baseline) that
yields every machine with enough free cores and free bytes, in that
tie-break order, so ``baseline_pick`` takes the first. ``segment_pick`` takes
the first candidate whose largest free segment covers the demand; only when
none does it run ``filter_min_segments``, which dry-runs the allocator's plan
on each candidate's own free-segment list without changing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

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
) -> Iterator[MachineView]:
    """The machines with at least ``cores`` free cores and ``memory`` free
    bytes, in ``index`` order: ``(-free, machine_id)`` for every machine,
    ascending, where ``free`` is the amount of the resource keying the index.
    The walk stops at the first entry with less free than ``stop``, the
    start's demand of that resource."""
    for neg_free, machine_id in index:
        if -neg_free < stop:
            return
        m = machines[machine_id]
        if m.cores_free >= cores and m.free_list.free_bytes >= memory:
            yield m


def segment_pick(
    candidates: Iterable[MachineView], memory: int, policy: AllocationPolicy
) -> int:
    """``filter_min_segments``' choice among candidates in index order: the
    first that grants one segment, the minimum, else the chain's pick."""
    walked = []
    for m in candidates:
        if m.free_list.max_segment >= memory:
            return m.machine_id
        walked.append(m)
    return filter_min_segments(walked, memory, policy)


def baseline_pick(candidates: Iterable[MachineView]) -> int:
    """Stock spread objective: most free cores, ties to the lowest id, which
    is the first candidate of a walk over the index keyed by free cores."""
    for m in candidates:
        return m.machine_id
    raise NoCandidateError("no machine has the free cores and bytes")
