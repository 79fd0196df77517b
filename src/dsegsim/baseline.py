"""Binary-buddy page allocator standing in for a stock hypervisor allocator.

Physical memory is carved into power-of-two blocks of 4 KiB pages. A VM
demand is satisfied by repeatedly taking the largest block not exceeding the
remaining demand (capped at ``max_order``); each block comes from the
smallest sufficient order, lowest address first within an order. The blocks
granted to a VM are merged into maximal contiguous runs to report how many
memory segments the VM effectively received.
"""

from __future__ import annotations

import bisect
import heapq
from typing import Iterable

from .segments import (
    PAGE_SIZE,
    InsufficientMemoryError,
    InvalidSizeError,
    SegmentDescriptor,
    VMAllocation,
)

DEFAULT_MAX_ORDER = 14  # 2**14 pages = 64 MiB blocks


class BuddyAllocator:
    """Buddy allocator over the user region [reserved_bytes, total_bytes).

    Free blocks per order are kept in a min-heap (lowest address first) with a
    set for membership, so stale heap entries from coalescing are skipped
    lazily.
    """

    def __init__(self, total_bytes: int, reserved_bytes: int = 0,
                 max_order: int = DEFAULT_MAX_ORDER, machine_id: int = 0):
        if total_bytes <= 0 or reserved_bytes < 0 or reserved_bytes >= total_bytes:
            raise InvalidSizeError(
                f"total_bytes={total_bytes}, reserved_bytes={reserved_bytes}"
            )
        self.machine_id = machine_id
        self.total_bytes = total_bytes
        self.reserved_bytes = reserved_bytes
        self.max_order = max_order
        self.start_page = -(-reserved_bytes // PAGE_SIZE)
        end_page = total_bytes // PAGE_SIZE
        self.num_pages = end_page - self.start_page
        if self.num_pages <= 0:
            raise InvalidSizeError("user region smaller than one page")
        self._heaps: list[list[int]] = [[] for _ in range(max_order + 1)]
        self._sets: list[set[int]] = [set() for _ in range(max_order + 1)]
        self._owned: dict[str, list[tuple[int, int]]] = {}  # vm_id -> [(page, order)]
        self.free_pages = self.num_pages
        self._seed_region()

    def copy(self, machine_id: int) -> BuddyAllocator:
        """An independent allocator in this one's state, for another machine.

        Every heap and set is copied, so the two never share a free block.
        The attributes are assigned one by one in ``__init__``'s order, which
        keeps the copy's attribute loads as fast as a fresh allocator's.
        """
        twin = BuddyAllocator.__new__(BuddyAllocator)
        twin.machine_id = machine_id
        twin.total_bytes = self.total_bytes
        twin.reserved_bytes = self.reserved_bytes
        twin.max_order = self.max_order
        twin.start_page = self.start_page
        twin.num_pages = self.num_pages
        twin._heaps = [heap.copy() for heap in self._heaps]
        twin._sets = [live.copy() for live in self._sets]
        twin._owned = self._owned.copy()  # block lists are never mutated
        twin.free_pages = self.free_pages
        return twin

    def _seed_region(self) -> None:
        # Maximal aligned blocks of [0, num_pages): max-order blocks from page
        # 0 (an ascending list is already a heap), then one block per lower
        # order that still fits.
        step = 1 << self.max_order
        page = self.num_pages - self.num_pages % step
        self._heaps[self.max_order] = list(range(0, page, step))
        self._sets[self.max_order] = set(self._heaps[self.max_order])
        for order in range(self.max_order - 1, -1, -1):
            if page + (1 << order) <= self.num_pages:
                self._push(page, order)
                page += 1 << order

    def _push(self, page: int, order: int) -> None:
        self._sets[order].add(page)
        heapq.heappush(self._heaps[order], page)

    def _pop_lowest(self, order: int) -> int | None:
        heap, live = self._heaps[order], self._sets[order]
        while heap:
            page = heapq.heappop(heap)
            if page in live:
                live.remove(page)
                return page
        return None

    def _acquire(self, order: int) -> int | None:
        """Take a block of exactly ``order``, splitting a larger one if needed."""
        for o in range(order, self.max_order + 1):
            page = self._pop_lowest(o)
            if page is None:
                continue
            while o > order:
                o -= 1
                self._push(page + (1 << o), o)
            return page
        return None

    @property
    def free_bytes(self) -> int:
        return self.free_pages * PAGE_SIZE

    def allocate(self, vm_id: str, demand: int) -> VMAllocation:
        """Grant ceil(demand / page) pages as buddy blocks, lowest address first.

        Fails atomically when the demand exceeds the free pages.
        """
        if demand <= 0:
            raise InvalidSizeError(f"demand must be positive, got {demand}")
        if vm_id in self._owned:
            raise InvalidSizeError(f"vm {vm_id} already holds memory here")
        pages = -(-demand // PAGE_SIZE)
        if pages > self.free_pages:
            raise InsufficientMemoryError(
                f"machine {self.machine_id}: demand {demand} exceeds "
                f"{self.free_bytes} free bytes"
            )
        blocks: list[tuple[int, int]] = []
        remaining = pages
        order = min(self.max_order, remaining.bit_length() - 1)
        while remaining > 0:
            while (1 << order) > remaining:
                order -= 1
            page = self._acquire(order)
            if page is None:
                order -= 1  # nothing this large left; make do with smaller blocks
                continue
            blocks.append((page, order))
            remaining -= 1 << order
        self._owned[vm_id] = blocks
        self.free_pages -= pages
        runs = self._runs((page, page + (1 << order)) for page, order in blocks)
        return VMAllocation(vm_id, tuple(SegmentDescriptor(*r) for r in runs))

    def _runs(self, spans: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
        """Merge (first_page, end_page) spans into maximal contiguous
        (base, limit) byte ranges, ascending."""
        merged: list[list[int]] = []
        for lo, hi in sorted(spans):
            if merged and merged[-1][1] == lo:
                merged[-1][1] = hi
            else:
                merged.append([lo, hi])
        offset = self.start_page * PAGE_SIZE
        return tuple((offset + lo * PAGE_SIZE, offset + hi * PAGE_SIZE) for lo, hi in merged)

    def release(self, vm_id: str) -> None:
        """Free a VM's blocks, coalescing buddies as far as possible."""
        if vm_id not in self._owned:
            raise KeyError(f"vm {vm_id} holds no memory on machine {self.machine_id}")
        for page, order in self._owned.pop(vm_id):
            self.free_pages += 1 << order
            while order < self.max_order:
                buddy = page ^ (1 << order)
                if buddy not in self._sets[order]:
                    break
                self._sets[order].remove(buddy)
                page = min(page, buddy)
                order += 1
            self._push(page, order)

    def free_runs(self) -> tuple[tuple[int, int], ...]:
        """Free memory as maximal contiguous (base, limit) byte ranges.

        Each order's free blocks are sorted once and cut into contiguous runs
        before the merge: over the sorted pages, ``pages[i] - i * size`` never
        decreases and stays level exactly along a run, so a bisection finds
        each run's end."""
        spans = []
        for order, live in enumerate(self._sets):
            size = 1 << order
            pages = sorted(live)
            i = 0
            while i < len(pages):
                end = bisect.bisect_right(
                    range(len(pages)), pages[i] - i * size, lo=i,
                    key=lambda j: pages[j] - j * size,
                )
                spans.append((pages[i], pages[end - 1] + size))
                i = end
        return self._runs(spans)
