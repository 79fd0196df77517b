"""Hypervisor free-memory bookkeeping and the segment-minimizing VM allocator.

A machine's user-VM memory is tracked as an ordered, fully coalesced list of
free segments. A VM demand is satisfied with as few segments as possible: an
exact-size segment when one exists, otherwise the low end of the largest
sufficiently large segment, otherwise a policy-driven composition of several
segments. Releases re-insert segments and merge them with abutting
neighbours, so the list never contains two adjacent free ranges.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum

PAGE_SIZE = 4096


class AllocatorError(Exception):
    """Base class for allocator failures."""


class InvalidSizeError(AllocatorError, ValueError):
    """A size or address argument is out of range."""


class InsufficientMemoryError(AllocatorError):
    """The demand exceeds the machine's total free memory."""


class OverlapError(AllocatorError):
    """A released segment intersects a free segment (double free or
    corrupted bookkeeping)."""


class AllocationPolicy(Enum):
    """How to compose a grant when no single free segment covers the demand.

    SMALLEST_FIRST consumes whole segments in ascending size order, keeping
    the big segments available for later VMs. LARGEST_FIRST takes the largest
    segment whole and retries with the reduced demand, minimizing the number
    of pieces for the current VM.
    """

    SMALLEST_FIRST = "opt1"
    LARGEST_FIRST = "opt2"


class VmMode(Enum):
    """How the hardware translates the VM's guest-physical addresses."""

    DSN = "dsn"          # register-file translation, k <= n segments
    FALLBACK = "fallback"  # nested or shadow paging


@dataclass(frozen=True)
class SegmentDescriptor:
    """A contiguous byte range [base, limit) of host physical memory."""

    base: int
    limit: int

    def __post_init__(self) -> None:
        if self.base < 0 or self.limit <= self.base:
            raise InvalidSizeError(
                f"segment [{self.base:#x}, {self.limit:#x}) is empty or negative"
            )

    @property
    def size(self) -> int:
        return self.limit - self.base


@dataclass
class FreeSegmentList:
    """Per-machine list of free segments, ascending by base, fully coalesced.

    ``reserved_bytes`` is the privileged region at the bottom of physical
    memory (hypervisor plus management tasks); it is never part of the list.
    ``free_bytes`` and ``max_segment`` (the size of the largest free segment,
    0 when none) are stored counters: the constructor computes them from
    ``segments``, and ``allocate`` and ``release`` keep them up to date.
    """

    machine_id: int
    total_bytes: int
    reserved_bytes: int
    segments: list[SegmentDescriptor] = field(default_factory=list)
    free_bytes: int = field(init=False)
    max_segment: int = field(init=False)

    def __post_init__(self) -> None:
        self.free_bytes = sum(s.size for s in self.segments)
        self.max_segment = _max_size(self.segments)

    def free_runs(self) -> tuple[tuple[int, int], ...]:
        """Free memory as (base, limit) byte ranges, ascending."""
        return tuple((s.base, s.limit) for s in self.segments)

    def check_invariants(self) -> None:
        """Raise ValueError if ordering, coalescing, or bounds are violated."""
        prev: SegmentDescriptor | None = None
        for seg in self.segments:
            if seg.base < self.reserved_bytes or seg.limit > self.total_bytes:
                raise ValueError(f"segment {seg} outside the user region")
            if prev is not None and prev.limit >= seg.base:
                raise ValueError(
                    f"segments {prev} and {seg} overlap or are uncoalesced"
                )
            prev = seg
        if self.free_bytes > self.total_bytes - self.reserved_bytes:
            raise ValueError("free bytes exceed the user region")
        if self.free_bytes != sum(s.size for s in self.segments):
            raise ValueError(f"stored free_bytes {self.free_bytes} differs from the list")
        if self.max_segment != _max_size(self.segments):
            raise ValueError(f"stored max_segment {self.max_segment} differs from the list")


@dataclass
class VMAllocation:
    """Host segments granted to one VM, in grant order."""

    vm_id: str
    segments: tuple[SegmentDescriptor, ...]

    @property
    def k(self) -> int:
        return len(self.segments)

    @property
    def total_bytes(self) -> int:
        return sum(s.size for s in self.segments)


def new_machine(total_bytes: int, reserved_bytes: int, machine_id: int = 0) -> FreeSegmentList:
    """Create a machine whose user region [reserved_bytes, total_bytes) is one
    free segment."""
    if total_bytes <= 0 or reserved_bytes < 0:
        raise InvalidSizeError(
            f"total_bytes={total_bytes}, reserved_bytes={reserved_bytes} must be positive"
        )
    if reserved_bytes >= total_bytes:
        raise InvalidSizeError(
            f"reservation {reserved_bytes} leaves no user memory out of {total_bytes}"
        )
    seg = SegmentDescriptor(reserved_bytes, total_bytes)
    return FreeSegmentList(machine_id, total_bytes, reserved_bytes, [seg])


def _max_size(free: list[SegmentDescriptor]) -> int:
    return max((s.limit - s.base for s in free), default=0)


def _pop_exact(free: list[SegmentDescriptor], size: int) -> SegmentDescriptor | None:
    # Exact fit, lowest base wins ties; list is base-ordered so the first hit wins.
    for i, seg in enumerate(free):
        if seg.size == size:
            return free.pop(i)
    return None


def _largest(free: list[SegmentDescriptor], above: int) -> int:
    """Index of the largest segment with size > above (lowest base on ties),
    or -1."""
    best = -1
    best_size = above
    for i, seg in enumerate(free):
        if seg.size > best_size:
            best = i
            best_size = seg.size
    return best


def _plan(
    segments: list[SegmentDescriptor],
    demand: int,
    policy: AllocationPolicy,
) -> tuple[list[SegmentDescriptor], list[SegmentDescriptor]] | None:
    """Compute (grants, remaining free list) without touching the input.

    Returns None when the demand exceeds the total free bytes: the free list
    then runs out before the demand is covered.
    """
    free = list(segments)
    grants: list[SegmentDescriptor] = []
    remaining = demand
    while True:
        exact = _pop_exact(free, remaining)
        if exact is not None:
            grants.append(exact)
            return grants, free
        i = _largest(free, remaining)
        if i >= 0:
            # Grant the low end; the remainder keeps the split segment's slot,
            # which leaves the list ordered by base.
            base, limit = free[i].base, free[i].limit
            grants.append(SegmentDescriptor(base, base + remaining))
            free[i] = SegmentDescriptor(base + remaining, limit)
            return grants, free
        # No single segment covers the demand: compose one per policy.
        if not free:
            return None
        if policy is AllocationPolicy.SMALLEST_FIRST:
            for seg in sorted(free, key=lambda s: (s.size, s.base)):
                if seg.size >= remaining:
                    break
                free.remove(seg)
                grants.append(seg)
                remaining -= seg.size
        else:
            grants.append(free.pop(_largest(free, 0)))
            remaining -= grants[-1].size


def allocate(
    flist: FreeSegmentList,
    vm_id: str,
    demand: int,
    policy: AllocationPolicy,
) -> VMAllocation:
    """Grant ``demand`` bytes to a VM, mutating the free list.

    Selection order: an exact-size segment; else the low end of the largest
    segment bigger than the demand (keeping big segments from shattering into
    small ones); else a policy-driven composition of several segments. Ties
    always go to the lowest base. Fails atomically: on insufficient memory the
    list is unchanged.
    """
    if demand <= 0:
        raise InvalidSizeError(f"demand must be positive, got {demand}")
    planned = _plan(flist.segments, demand, policy)
    if planned is None:
        raise InsufficientMemoryError(
            f"machine {flist.machine_id}: demand {demand} exceeds "
            f"{flist.free_bytes} free bytes"
        )
    grants, free = planned
    flist.segments = free
    flist.free_bytes -= demand
    flist.max_segment = _max_size(free)
    return VMAllocation(vm_id=vm_id, segments=tuple(grants))


def peek_segment_count(
    flist: FreeSegmentList, demand: int, policy: AllocationPolicy
) -> int | None:
    """Number of segments allocate() would grant, without mutating the list.

    Returns None when the demand is infeasible on this machine.
    """
    if demand <= 0:
        raise InvalidSizeError(f"demand must be positive, got {demand}")
    planned = _plan(flist.segments, demand, policy)
    if planned is None:
        return None
    return len(planned[0])


def release(flist: FreeSegmentList, allocation: VMAllocation) -> FreeSegmentList:
    """Return an allocation's segments to the free list, coalescing at every
    coincident border.

    Raises OverlapError (leaving the list unchanged) if any released segment
    intersects a free segment, which signals a double free.
    """
    bases = [s.base for s in flist.segments]
    for seg in allocation.segments:
        i = bisect.bisect_right(bases, seg.base)
        if i > 0 and flist.segments[i - 1].limit > seg.base:
            raise OverlapError(f"released {seg} overlaps free {flist.segments[i - 1]}")
        if i < len(bases) and seg.limit > flist.segments[i].base:
            raise OverlapError(f"released {seg} overlaps free {flist.segments[i]}")
    for seg in sorted(allocation.segments, key=lambda s: s.base):
        merged = _insert_coalescing(flist.segments, seg)
        flist.free_bytes += seg.size
        flist.max_segment = max(flist.max_segment, merged.size)
    return flist


def _insert_coalescing(
    free: list[SegmentDescriptor], seg: SegmentDescriptor
) -> SegmentDescriptor:
    """Insert ``seg`` and merge it with abutting neighbours; returns the
    merged segment."""
    i = bisect.bisect_right([s.base for s in free], seg.base)
    base, limit = seg.base, seg.limit
    lo = i
    if i > 0 and free[i - 1].limit == base:
        base = free[i - 1].base
        lo = i - 1
    hi = i
    if i < len(free) and free[i].base == limit:
        limit = free[i].limit
        hi = i + 1
    merged = SegmentDescriptor(base, limit)
    free[lo:hi] = [merged]
    return merged
