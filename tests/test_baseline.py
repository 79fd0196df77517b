import copy
import heapq
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from dsegsim.baseline import DEFAULT_MAX_ORDER, BuddyAllocator
from dsegsim.segments import (
    InsufficientMemoryError,
    InvalidSizeError,
    PAGE_SIZE,
    SegmentDescriptor,
    new_machine,
)
from oracle import BitmapOracle

GIB = 1 << 30
MIB = 1 << 20


class TestBuddyBasics:
    def test_first_allocation_on_empty_machine_is_contiguous(self):
        buddy = BuddyAllocator(16 * GIB)
        alloc = buddy.allocate("vm", 4 * MIB)
        assert alloc.k == 1
        assert alloc.total_bytes == 4 * MIB

    def test_zero_demand_rejected(self):
        with pytest.raises(InvalidSizeError):
            BuddyAllocator(GIB).allocate("vm", 0)

    def test_insufficient_memory_is_atomic(self):
        buddy = BuddyAllocator(64 * PAGE_SIZE)
        before = buddy.free_bytes
        with pytest.raises(InsufficientMemoryError):
            buddy.allocate("vm", 65 * PAGE_SIZE)
        assert buddy.free_bytes == before

    def test_sub_page_demand_rounds_up_to_one_page(self):
        buddy = BuddyAllocator(GIB)
        alloc = buddy.allocate("vm", 100)
        assert alloc.total_bytes == PAGE_SIZE

    def test_release_restores_free_bytes(self):
        buddy = BuddyAllocator(GIB)
        buddy.allocate("vm", 37 * PAGE_SIZE)
        buddy.release("vm")
        assert buddy.free_bytes == GIB
        assert buddy.free_runs() == ((0, GIB),)

    def test_reserved_region_excluded(self):
        buddy = BuddyAllocator(GIB, reserved_bytes=256 * PAGE_SIZE)
        assert buddy.free_bytes == GIB - 256 * PAGE_SIZE
        alloc = buddy.allocate("vm", GIB - 256 * PAGE_SIZE)
        assert alloc.segments[0].base == 256 * PAGE_SIZE
        assert alloc.segments[-1].limit == GIB

    def test_unknown_release_rejected(self):
        with pytest.raises(KeyError):
            BuddyAllocator(GIB).release("ghost")


class TestFragmentation:
    def test_interleaved_frees_force_multiple_runs(self):
        # Carve A..D back to back, free the 2nd and 4th, then ask for their
        # combined size: the grant must come as two separate runs.
        buddy = BuddyAllocator(256 * PAGE_SIZE, max_order=4)
        oracle = BitmapOracle(256 * PAGE_SIZE)
        chunk = 16 * PAGE_SIZE
        for name in ("a", "b", "c", "d"):
            oracle.mark_allocated(buddy.allocate(name, chunk).segments)
        holes = {}
        for name in ("b", "d"):
            holes[name] = buddy._owned[name]
            buddy.release(name)
        oracle.mark_released(
            [s for name in ("b", "d") for s in _block_segments(buddy, holes[name])]
        )
        alloc = buddy.allocate("e", 2 * chunk)
        oracle.mark_allocated(alloc.segments)
        assert alloc.k == 2
        assert [s.base for s in alloc.segments] == [chunk, 3 * chunk]

    def test_bitmap_oracle_equivalence_under_random_churn(self):
        rng = random.Random(5)
        total = 4096 * PAGE_SIZE
        buddy = BuddyAllocator(total, max_order=6)
        oracle = BitmapOracle(total)
        live = {}
        for step in range(400):
            if live and rng.random() < 0.45:
                vm = rng.choice(sorted(live))
                buddy.release(vm)
                oracle.mark_released(live.pop(vm).segments)
            else:
                pages = rng.randint(1, 128)
                vm = f"vm{step}"
                if pages > buddy.free_pages:
                    with pytest.raises(InsufficientMemoryError):
                        buddy.allocate(vm, pages * PAGE_SIZE)
                    continue
                alloc = buddy.allocate(vm, pages * PAGE_SIZE)
                live[vm] = alloc
                oracle.mark_allocated(alloc.segments)
            assert buddy.free_bytes == oracle.free_pages * PAGE_SIZE
            oracle.assert_matches_runs(buddy.free_runs())
        for vm in sorted(live):
            buddy.release(vm)
            oracle.mark_released(live[vm].segments)
        assert buddy.free_runs() == ((0, total),)


def _block_segments(buddy, blocks):
    offset = buddy.start_page * PAGE_SIZE
    return [
        SegmentDescriptor(
            offset + page * PAGE_SIZE, offset + (page + (1 << order)) * PAGE_SIZE
        )
        for page, order in blocks
    ]


class TestOddRegions:
    def test_non_power_of_two_region_fully_usable(self):
        pages = 1000  # decomposes into 512+256+128+64+32+8 blocks
        buddy = BuddyAllocator(pages * PAGE_SIZE, max_order=9)
        alloc = buddy.allocate("vm", pages * PAGE_SIZE)
        assert alloc.total_bytes == pages * PAGE_SIZE
        assert alloc.k == 1  # blocks are adjacent, so they merge into one run
        buddy.release("vm")
        assert buddy.free_runs() == ((0, pages * PAGE_SIZE),)

    def test_bulk_seeding_matches_the_greedy_block_decomposition(self):
        """The free blocks a new allocator starts with, heap order included,
        are those of carving the region greedily into maximal aligned blocks."""
        rng = random.Random(17)
        for _ in range(3003):
            max_order = rng.randint(0, 14)
            reserved = rng.choice((0, rng.randint(1, 1 << 24)))
            pages = rng.randint(0, 40) * (1 << max_order) + rng.randint(1, 1 << max_order)
            total = reserved + (pages + 1) * PAGE_SIZE + rng.randint(0, PAGE_SIZE - 1)
            buddy = BuddyAllocator(total, reserved, max_order=max_order)
            heaps, sets = greedy_seed(buddy.num_pages, max_order)
            assert buddy._heaps == heaps
            assert buddy._sets == sets


BLOCK = PAGE_SIZE << DEFAULT_MAX_ORDER  # 64 MiB
# byte counts from below one page to a few 64 MiB blocks, odd ones included
SIZES = st.integers(-PAGE_SIZE, 3 * PAGE_SIZE) | st.integers(-PAGE_SIZE, 4 * BLOCK + PAGE_SIZE)


class TestFreshSeedEqualsNewMachine:
    """The baseline keeps a machine's ``new_machine`` free list until its
    first grant, in place of a freshly seeded buddy allocator: the two must
    hold the same free memory for every shape, or both reject it."""

    @settings(max_examples=300, deadline=None)
    @given(total=SIZES, reserved=SIZES)
    @example(total=BLOCK - 1, reserved=PAGE_SIZE + 1)  # below one block
    @example(total=3 * BLOCK + 12345, reserved=BLOCK - 7)
    @example(total=128 * GIB, reserved=3 * GIB + 5)
    @example(total=8000, reserved=4000)  # no whole page of user memory
    @example(total=PAGE_SIZE, reserved=PAGE_SIZE)
    @example(total=0, reserved=0)
    def test_same_free_bytes_and_runs_or_both_raise(self, total, reserved):
        try:
            flist = new_machine(total, reserved)
        except InvalidSizeError:
            with pytest.raises(InvalidSizeError):
                BuddyAllocator(total, reserved)
            return
        buddy = BuddyAllocator(total, reserved)
        assert buddy.free_bytes == flist.free_bytes
        assert buddy.free_runs() == flist.free_runs()


def greedy_seed(num_pages, max_order):
    """Per-order heaps and sets of the maximal aligned blocks of
    [0, num_pages), found one block at a time from page 0."""
    heaps = [[] for _ in range(max_order + 1)]
    sets = [set() for _ in range(max_order + 1)]
    page = 0
    while page < num_pages:
        align = (page & -page).bit_length() - 1 if page else max_order
        order = min(max_order, align)
        while page + (1 << order) > num_pages:
            order -= 1
        sets[order].add(page)
        heapq.heappush(heaps[order], page)
        page += 1 << order
    return heaps, sets


class TestFreeRuns:
    def test_matches_the_per_block_merge_after_every_operation(self):
        rng = random.Random(23)
        seen = dict.fromkeys(("live", "gapped", "joined_blocks"), 0)
        for _ in range(300):
            max_order = rng.randint(0, 14)
            reserved = rng.choice((0, rng.randint(1, 1 << 24)))
            pages = rng.randint(0, 6) * (1 << max_order) + rng.randint(1, 1 << max_order)
            total = reserved + (pages + 1) * PAGE_SIZE + rng.randint(0, PAGE_SIZE - 1)
            buddy = BuddyAllocator(total, reserved, max_order=max_order)
            live = []
            for step in range(rng.randint(1, 30)):
                if live and rng.random() < 0.4:
                    buddy.release(live.pop(rng.randrange(len(live))))
                elif buddy.free_pages:
                    vm = f"vm{step}"
                    buddy.allocate(vm, rng.randint(1, buddy.free_pages * PAGE_SIZE // 3 + 1))
                    live.append(vm)
                runs = buddy.free_runs()
                assert runs == per_block_free_runs(buddy)
                seen["live"] += bool(live)
                seen["gapped"] += len(runs) > 1
                seen["joined_blocks"] += any(
                    page + (1 << order) in blocks
                    for order, blocks in enumerate(buddy._sets) for page in blocks
                )
            for vm in live:
                buddy.release(vm)
            region = (buddy.start_page * PAGE_SIZE, total // PAGE_SIZE * PAGE_SIZE)
            assert buddy.free_runs() == per_block_free_runs(buddy) == (region,)
        assert all(seen.values()), seen


def per_block_free_runs(buddy):
    """Free runs found one free block at a time: every block of every order
    sorted by start page, then abutting blocks merged."""
    blocks = sorted(
        (page, page + (1 << order))
        for order, pages in enumerate(buddy._sets) for page in pages
    )
    merged = []
    for lo, hi in blocks:
        if merged and merged[-1][1] == lo:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    offset = buddy.start_page * PAGE_SIZE
    return tuple((offset + lo * PAGE_SIZE, offset + hi * PAGE_SIZE) for lo, hi in merged)


def random_shape(rng):
    """(total_bytes, reserved_bytes, max_order) of a random region: odd byte
    counts, a user region anywhere from one page to several max-order blocks."""
    max_order = rng.randint(0, 14)
    reserved = rng.choice((0, rng.randint(1, 1 << 24)))
    pages = rng.randint(0, 6) * (1 << max_order) + rng.randint(1, 1 << max_order)
    total = reserved + (pages + 1) * PAGE_SIZE + rng.randint(0, PAGE_SIZE - 1)
    return total, reserved, max_order


def free_state(buddy):
    return (buddy._heaps, buddy._sets, buddy._owned, buddy.free_pages,
            buddy.start_page, buddy.num_pages)


class TestCopy:
    def test_copy_equals_a_fresh_allocator_and_shares_none_of_its_state(self):
        rng = random.Random(29)
        for _ in range(300):
            total, reserved, max_order = random_shape(rng)
            template = BuddyAllocator(total, reserved, max_order=max_order)
            fresh = BuddyAllocator(total, reserved, max_order=max_order, machine_id=7)
            twin = template.copy(7)
            assert vars(twin) == vars(fresh)
            assert list(vars(twin)) == list(vars(fresh))  # __init__'s order
            assert twin.machine_id == 7 and template.machine_id == 0
            for mine, theirs in zip(
                (*twin._heaps, *twin._sets, twin._owned),
                (*template._heaps, *template._sets, template._owned),
            ):
                assert mine is not theirs

    def test_a_copy_and_its_template_grant_alike_under_one_sequence(self):
        rng = random.Random(37)
        for _ in range(200):
            total, reserved, max_order = random_shape(rng)
            template = BuddyAllocator(total, reserved, max_order=max_order)
            twin = template.copy(3)
            live = []
            for step in range(rng.randint(1, 30)):
                if live and rng.random() < 0.4:
                    vm = live.pop(rng.randrange(len(live)))
                    template.release(vm)
                    twin.release(vm)
                elif template.free_pages:
                    vm = f"vm{step}"
                    demand = rng.randint(1, template.free_pages * PAGE_SIZE // 3 + 1)
                    assert twin.allocate(vm, demand) == template.allocate(vm, demand)
                    live.append(vm)
                assert twin.free_runs() == template.free_runs()
                assert free_state(twin) == free_state(template)

    def test_allocating_on_a_copy_leaves_the_template_and_a_sibling_unchanged(self):
        rng = random.Random(41)
        for _ in range(100):
            total, reserved, max_order = random_shape(rng)
            template = BuddyAllocator(total, reserved, max_order=max_order)
            first, second = template.copy(1), template.copy(2)
            seeded = copy.deepcopy(free_state(template))
            vm = 0
            while first.free_pages:
                first.allocate(f"vm{vm}", rng.randint(1, first.free_pages) * PAGE_SIZE)
                vm += 1
                assert free_state(template) == seeded
                assert free_state(second) == seeded
            held = copy.deepcopy(free_state(first))
            twin = first.copy(3)  # a copy of a machine with live VMs
            twin.release("vm0")
            assert free_state(first) == held
            first.release("vm0")
            assert free_state(twin) == free_state(first)
            assert free_state(template) == free_state(second) == seeded
