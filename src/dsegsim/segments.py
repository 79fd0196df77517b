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


@dataclass(slots=True)
class SegmentDescriptor:
    """A contiguous byte range [base, limit) of host physical memory.

    Slotted, so mutable and unhashable, but nothing mutates an instance: an
    exact-fit grant hands out the very descriptor its free list held, and a
    fork of a replay shares every descriptor of the free lists it copies."""

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


@dataclass(slots=True)
class VMAllocation:
    """Host segments granted to one VM, in grant order.

    Slotted and unhashable; nothing mutates an instance, which a replay and
    its fork share through their maps of live VMs."""

    vm_id: str
    segments: tuple[SegmentDescriptor, ...]

    @property
    def k(self) -> int:
        return len(self.segments)

    @property
    def total_bytes(self) -> int:
        return sum(s.size for s in self.segments)


def new_machine(total_bytes: int, reserved_bytes: int, machine_id: int = 0) -> FreeSegmentList:
    """Create a machine whose user region, the whole pages of
    [reserved_bytes, total_bytes), is one free segment."""
    if total_bytes <= 0 or reserved_bytes < 0:
        raise InvalidSizeError(
            f"total_bytes={total_bytes}, reserved_bytes={reserved_bytes} must be positive"
        )
    base = -(-reserved_bytes // PAGE_SIZE) * PAGE_SIZE
    limit = total_bytes // PAGE_SIZE * PAGE_SIZE
    if base >= limit:
        raise InvalidSizeError(
            f"reservation {reserved_bytes} leaves no whole page of user memory "
            f"out of {total_bytes}"
        )
    seg = SegmentDescriptor(base, limit)
    return FreeSegmentList(machine_id, total_bytes, reserved_bytes, [seg])


def _max_size(free: list[SegmentDescriptor]) -> int:
    return max((s.limit - s.base for s in free), default=0)


def _fit(free: list[SegmentDescriptor], size: int) -> tuple[int, int]:
    """One scan for a segment to cover ``size`` bytes: ``(i, -1)`` for the
    first segment of exactly ``size`` bytes, else ``(-1, j)`` for the largest
    segment bigger than ``size``, -1 when none is. The list is base-ordered,
    so ties go to the lowest base."""
    best = -1
    best_size = size
    for i, seg in enumerate(free):
        seg_size = seg.limit - seg.base
        if seg_size == size:
            return i, -1
        if seg_size > best_size:
            best = i
            best_size = seg_size
    return -1, best


def _plan(
    free: list[SegmentDescriptor],
    demand: int,
    policy: AllocationPolicy,
) -> list[SegmentDescriptor]:
    """Take ``demand`` bytes out of ``free``, in place, and return the grants.

    The caller checks ``demand`` against the stored free bytes first; the
    list running out anyway means that counter was wrong.
    """
    grants: list[SegmentDescriptor] = []
    remaining = demand
    while True:
        exact, bigger = _fit(free, remaining)
        if exact >= 0:
            grants.append(free.pop(exact))
            return grants
        if bigger >= 0:
            # Grant the low end; the remainder keeps the split segment's slot,
            # which leaves the list ordered by base.
            base, limit = free[bigger].base, free[bigger].limit
            grants.append(SegmentDescriptor(base, base + remaining))
            free[bigger] = SegmentDescriptor(base + remaining, limit)
            return grants
        # No single segment covers the demand: compose one per policy.
        if not free:
            raise AllocatorError(
                f"free list ran out {remaining} bytes short of its free_bytes counter"
            )
        if policy is AllocationPolicy.SMALLEST_FIRST:
            for seg in sorted(free, key=lambda s: (s.size, s.base)):
                if seg.size >= remaining:
                    break
                free.remove(seg)
                grants.append(seg)
                remaining -= seg.size
        else:
            grants.append(free.pop(_fit(free, 0)[1]))
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
    if demand > flist.free_bytes:
        raise InsufficientMemoryError(
            f"machine {flist.machine_id}: demand {demand} exceeds "
            f"{flist.free_bytes} free bytes"
        )
    grants = _plan(flist.segments, demand, policy)
    flist.free_bytes -= demand
    flist.max_segment = _max_size(flist.segments)
    return VMAllocation(vm_id=vm_id, segments=tuple(grants))


def peek_segment_count(
    flist: FreeSegmentList, demand: int, policy: AllocationPolicy
) -> int | None:
    """Number of segments allocate() would grant, without mutating the list.

    Returns None when the demand is infeasible on this machine.
    """
    if demand <= 0:
        raise InvalidSizeError(f"demand must be positive, got {demand}")
    if demand > flist.free_bytes:
        return None
    return len(_plan(list(flist.segments), demand, policy))


def release(flist: FreeSegmentList, allocation: VMAllocation) -> FreeSegmentList:
    """Return an allocation's segments to the free list, coalescing at every
    coincident border.

    Raises OverlapError (leaving the list unchanged) if any released segment
    intersects a free segment, which signals a double free.
    """
    free = flist.segments
    for seg in allocation.segments:
        i = bisect.bisect_right(free, seg.base, key=lambda s: s.base)
        if i > 0 and free[i - 1].limit > seg.base:
            raise OverlapError(f"released {seg} overlaps free {free[i - 1]}")
        if i < len(free) and seg.limit > free[i].base:
            raise OverlapError(f"released {seg} overlaps free {free[i]}")
    for seg in sorted(allocation.segments, key=lambda s: s.base):
        merged = _insert_coalescing(free, seg)
        flist.free_bytes += seg.size
        flist.max_segment = max(flist.max_segment, merged.size)
    return flist


def _insert_coalescing(
    free: list[SegmentDescriptor], seg: SegmentDescriptor
) -> SegmentDescriptor:
    """Insert ``seg`` and merge it with abutting neighbours; returns the
    merged segment."""
    i = bisect.bisect_right(free, seg.base, key=lambda s: s.base)
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
