"""Hypervisor free-memory bookkeeping and the segment-minimizing VM allocator.

A machine's user-VM memory is tracked as an ordered, fully coalesced list of
free segments. A VM demand is satisfied with as few segments as possible: an
exact-size segment when one exists, otherwise the low end of the largest
sufficiently large segment, otherwise a policy-driven composition of several
segments. Releases re-insert segments and merge them with abutting
neighbours, so the list never contains two adjacent free ranges.

Each free list stores its segments as two parallel int columns, bases and
sizes, and every grant and release edits the two in step, so a grant's
search for an exact fit, the largest segment or the smallest ones is one
list operation (``in``, ``index``, a sort of indices) rather than a loop
over descriptors. ``SegmentDescriptor`` objects are built only for what a
grant hands out. The largest segment's size is a stored counter: a grant
starts from it and rescans the sizes once, after its plan. A placement dry
run only counts the segments a grant would take, from the sorted sizes,
without copying the list or planning the grant. A release bisects the bases
once per released segment, in the unchanged columns, then edits the
segments into both columns in place from the highest base down (an insert,
a grown neighbour, or one delete where it joins two), so that no edit moves
the slot found for a segment still to come.
"""

from __future__ import annotations

import bisect
import operator
from collections.abc import Iterable
from dataclasses import dataclass
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


# the composition policies, read once rather than through the Enum per grant
_SMALLEST_FIRST = AllocationPolicy.SMALLEST_FIRST
_LARGEST_FIRST = AllocationPolicy.LARGEST_FIRST


@dataclass(slots=True, init=False)
class SegmentDescriptor:
    """A contiguous byte range [base, limit) of host physical memory.

    Slotted, so mutable and unhashable, but nothing mutates an instance: a
    grant builds one per granted segment, and a replay and its fork share
    the descriptors of the VMs live when it forked. The constructor is
    written out, check first, so that it runs one Python frame rather than
    the generated ``__init__`` and a ``__post_init__``."""

    base: int
    limit: int

    def __init__(self, base: int, limit: int) -> None:
        if base < 0 or limit <= base:
            raise InvalidSizeError(f"segment [{base:#x}, {limit:#x}) is empty or negative")
        self.base = base
        self.limit = limit

    @property
    def size(self) -> int:
        return self.limit - self.base


@dataclass(slots=True, init=False)
class FreeSegmentList:
    """Per-machine free memory, ascending by base and fully coalesced.

    ``reserved_bytes`` is the privileged region at the bottom of physical
    memory (hypervisor plus management tasks); it is never free. The free
    segments are two parallel int columns, ``bases`` and ``sizes``;
    ``free_bytes`` and ``max_segment`` (the size of the largest free
    segment, 0 when none) are stored counters. The constructor computes all
    four from descriptors, and ``allocate`` and ``release`` keep them in
    step. ``segments`` builds descriptors from the columns on each read; no
    grant or release reads it.
    """

    machine_id: int
    total_bytes: int
    reserved_bytes: int
    bases: list[int]
    sizes: list[int]
    free_bytes: int
    max_segment: int

    def __init__(
        self,
        machine_id: int,
        total_bytes: int,
        reserved_bytes: int,
        segments: Iterable[SegmentDescriptor] = (),
    ) -> None:
        self.machine_id = machine_id
        self.total_bytes = total_bytes
        self.reserved_bytes = reserved_bytes
        self.bases = []
        self.sizes = []
        for s in segments:
            self.bases.append(s.base)
            self.sizes.append(s.limit - s.base)
        self.free_bytes = sum(self.sizes)
        self.max_segment = max(self.sizes) if self.sizes else 0

    @property
    def segments(self) -> list[SegmentDescriptor]:
        """The free segments as descriptors, ascending by base."""
        return [SegmentDescriptor(b, b + s) for b, s in zip(self.bases, self.sizes)]

    def copy(self, machine_id: int) -> FreeSegmentList:
        """An equal list for machine ``machine_id`` that shares neither column
        with this one. Its slots are filled directly, without ``__init__``."""
        flist = FreeSegmentList.__new__(FreeSegmentList)
        flist.machine_id = machine_id
        flist.total_bytes = self.total_bytes
        flist.reserved_bytes = self.reserved_bytes
        flist.bases = self.bases.copy()
        flist.sizes = self.sizes.copy()
        flist.free_bytes = self.free_bytes
        flist.max_segment = self.max_segment
        return flist

    def free_runs(self) -> tuple[tuple[int, int], ...]:
        """Free memory as (base, limit) byte ranges, ascending."""
        return tuple((b, b + s) for b, s in zip(self.bases, self.sizes))

    def check_invariants(self) -> None:
        """Raise ValueError, naming the column or counter at fault, if the
        columns differ in length, hold an empty segment or one outside the
        user region, are unordered or uncoalesced, or disagree with the
        counters."""
        bases, sizes = self.bases, self.sizes
        if len(bases) != len(sizes):
            raise ValueError(f"bases has {len(bases)} entries but sizes has {len(sizes)}")
        for i, (base, size) in enumerate(zip(bases, sizes)):
            if size <= 0:
                raise ValueError(f"sizes[{i}] = {size} is not positive")
            if base < self.reserved_bytes or base + size > self.total_bytes:
                raise ValueError(
                    f"bases[{i}], sizes[{i}]: [{base:#x}, {base + size:#x}) lies outside "
                    f"the user region [{self.reserved_bytes:#x}, {self.total_bytes:#x})"
                )
            if i and bases[i - 1] + sizes[i - 1] >= base:
                raise ValueError(f"bases[{i - 1}] and bases[{i}] overlap, abut or are unordered")
        if self.free_bytes != sum(sizes):
            raise ValueError(f"stored free_bytes {self.free_bytes} differs from the sizes")
        if self.max_segment != (max(sizes) if sizes else 0):
            raise ValueError(f"stored max_segment {self.max_segment} differs from the sizes")


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
    flist = FreeSegmentList(machine_id, total_bytes, reserved_bytes)
    flist.bases.append(base)
    flist.sizes.append(limit - base)
    flist.free_bytes = flist.max_segment = limit - base
    return flist


_base = operator.attrgetter("base")


def _plan(
    bases: list[int],
    sizes: list[int],
    demand: int,
    policy: AllocationPolicy,
    largest: int,
) -> list[SegmentDescriptor]:
    """Take ``demand`` bytes out of the free columns, in place, and return
    the grants.

    ``bases`` and ``sizes`` are a free list's columns and ``largest`` is
    ``max(sizes)``, 0 when empty: the list's stored ``max_segment``, which
    is rescanned here only after a composition step. Every search runs on
    ``sizes``: ``index`` finds the first, so lowest-base, segment of a size,
    and the smallest-first composition sorts indices stably by size, so its
    ties go to the lowest base too.

    The caller checks ``demand`` against the stored free bytes first; the
    list running out anyway means that counter was wrong.
    """
    grants: list[SegmentDescriptor] = []
    remaining = demand
    while True:
        if remaining in sizes:
            i = sizes.index(remaining)
            del sizes[i]
            base = bases.pop(i)
            grants.append(SegmentDescriptor(base, base + remaining))
            return grants
        if largest > remaining:
            # Grant the low end; the remainder keeps the split segment's slot,
            # which leaves the list ordered by base.
            i = sizes.index(largest)
            base = bases[i]
            grants.append(SegmentDescriptor(base, base + remaining))
            bases[i] = base + remaining
            sizes[i] = largest - remaining
            return grants
        # No single segment covers the demand: compose one per policy.
        if not sizes:
            raise AllocatorError(
                f"free list ran out {remaining} bytes short of its free_bytes counter"
            )
        if policy is _SMALLEST_FIRST:
            taken = []
            for i in sorted(range(len(sizes)), key=sizes.__getitem__):
                if sizes[i] >= remaining:
                    break
                taken.append(i)
                remaining -= sizes[i]
            grants += [SegmentDescriptor(bases[i], bases[i] + sizes[i]) for i in taken]
            for i in sorted(taken, reverse=True):
                del bases[i], sizes[i]
        else:
            i = sizes.index(largest)
            del sizes[i]
            base = bases.pop(i)
            grants.append(SegmentDescriptor(base, base + largest))
            remaining -= largest
        largest = max(sizes) if sizes else 0


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
    sizes = flist.sizes
    grants = _plan(flist.bases, sizes, demand, policy, flist.max_segment)
    flist.free_bytes -= demand
    flist.max_segment = max(sizes) if sizes else 0
    return VMAllocation(vm_id, tuple(grants))


def peek_segment_count(
    flist: FreeSegmentList, demand: int, policy: AllocationPolicy
) -> int | None:
    """Number of segments allocate() would grant, without mutating the list.

    Returns None when the demand is infeasible on this machine. The count
    comes from the sorted sizes, not from a plan run on a copy: 1 when some
    segment covers the demand, else 1 plus the number of smallest (opt1) or
    largest (opt2) sizes a composition takes while each is below what
    remains of the demand. Raises AllocatorError, as allocate() does, when
    the list runs out before its free_bytes counter.
    """
    if demand <= 0:
        raise InvalidSizeError(f"demand must be positive, got {demand}")
    if demand > flist.free_bytes:
        return None
    if flist.max_segment >= demand:
        return 1
    sizes = sorted(flist.sizes, reverse=policy is _LARGEST_FIRST)
    count = 1
    remaining = demand
    for size in sizes:
        if size >= remaining:
            return count
        remaining -= size
        count += 1
    raise AllocatorError(
        f"free list ran out {remaining} bytes short of its free_bytes counter"
    )


def release(flist: FreeSegmentList, allocation: VMAllocation) -> FreeSegmentList:
    """Return an allocation's segments to the free list, coalescing at every
    coincident border.

    Raises OverlapError if a released segment intersects a free segment or
    another released one, which signals a double free, and InvalidSizeError
    if one lies outside ``[reserved_bytes, total_bytes)``; either way the list
    is left unchanged.

    Each released segment is bisected once, into its slot in the unchanged
    bases, and the segments go in from the highest base down, each edited
    into the columns in place: inserted at its slot when it abuts no free
    run, added to the run below it, or moved down to be the start of the run
    above it; when it joins both, the run below takes it and the run above,
    and the slot above is deleted. An insertion edits its own slot and the
    one below it. No insertion before it touched the slot below, and
    whatever range now fills its own slot starts where the next free memory
    above it starts, so comparing bases still finds every border.
    """
    bases, sizes = flist.bases, flist.sizes
    segs = allocation.segments
    if len(segs) > 1:
        segs = sorted(segs, key=_base)
        for a, b in zip(segs, segs[1:]):
            if b.base < a.limit:
                raise OverlapError(f"released {a} and {b} overlap")
    if segs and (segs[0].base < flist.reserved_bytes or segs[-1].limit > flist.total_bytes):
        raise InvalidSizeError(
            f"released segments span [{segs[0].base:#x}, {segs[-1].limit:#x}), outside "
            f"the user region [{flist.reserved_bytes:#x}, {flist.total_bytes:#x})"
        )
    slots = []
    for seg in segs:
        i = bisect.bisect_right(bases, seg.base)
        if i > 0 and bases[i - 1] + sizes[i - 1] > seg.base:
            raise OverlapError(
                f"released {seg} overlaps free [{bases[i - 1]:#x}, "
                f"{bases[i - 1] + sizes[i - 1]:#x})"
            )
        if i < len(bases) and seg.limit > bases[i]:
            raise OverlapError(
                f"released {seg} overlaps free [{bases[i]:#x}, {bases[i] + sizes[i]:#x})"
            )
        slots.append(i)
    largest = flist.max_segment
    j = len(segs)
    while j:
        j -= 1
        seg = segs[j]
        i = slots[j]
        base = seg.base
        size = seg.limit - base
        flist.free_bytes += size
        below = i > 0 and bases[i - 1] + sizes[i - 1] == base
        if i < len(bases) and bases[i] == seg.limit:
            if below:
                size += sizes[i - 1] + sizes[i]
                sizes[i - 1] = size
                del bases[i], sizes[i]
            else:
                size += sizes[i]
                bases[i] = base
                sizes[i] = size
        elif below:
            size += sizes[i - 1]
            sizes[i - 1] = size
        else:
            bases.insert(i, base)
            sizes.insert(i, size)
        if size > largest:
            largest = size
    flist.max_segment = largest
    return flist
