import bisect
import copy
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from dsegsim.baseline import BuddyAllocator
from dsegsim.segments import (
    AllocationPolicy,
    AllocatorError,
    FreeSegmentList,
    InsufficientMemoryError,
    InvalidSizeError,
    OverlapError,
    PAGE_SIZE,
    SegmentDescriptor,
    VMAllocation,
    _plan,
    allocate,
    new_machine,
    peek_segment_count,
    release,
)
from oracle import BitmapOracle, plan_by_copy, release_two_pass

GIB = 1 << 30
OPT1 = AllocationPolicy.SMALLEST_FIRST
OPT2 = AllocationPolicy.LARGEST_FIRST


def flist(*spans, total=16 * GIB, reserved=0):
    return FreeSegmentList(
        0, total, reserved, [SegmentDescriptor(b, l) for b, l in spans]
    )


def spans(fl):
    return [(s.base, s.limit) for s in fl.segments]


class TestNewMachine:
    def test_reserved_region_excluded(self):
        fl = new_machine(16 * GIB, 1 * GIB)
        assert spans(fl) == [(1 * GIB, 16 * GIB)]

    def test_zero_reservation(self):
        fl = new_machine(8 * GIB, 0)
        assert spans(fl) == [(0, 8 * GIB)]

    def test_empty_user_region_rejected(self):
        with pytest.raises(InvalidSizeError):
            new_machine(1 * GIB, 1 * GIB)

    def test_negative_sizes_rejected(self):
        with pytest.raises(InvalidSizeError):
            new_machine(0, 0)
        with pytest.raises(InvalidSizeError):
            new_machine(GIB, -1)


class TestCopy:
    def test_copy_is_equal_valid_and_shares_no_column(self):
        fl = flist((0, GIB), (2 * GIB, 3 * GIB), (5 * GIB, 8 * GIB), reserved=0)
        twin = fl.copy(9)
        twin.check_invariants()
        assert twin.machine_id == 9
        assert (twin.total_bytes, twin.reserved_bytes, twin.free_bytes, twin.max_segment) == (
            fl.total_bytes, fl.reserved_bytes, fl.free_bytes, fl.max_segment)
        assert (twin.bases, twin.sizes) == (fl.bases, fl.sizes)
        assert twin.bases is not fl.bases and twin.sizes is not fl.sizes
        before = spans(fl)
        granted = allocate(twin, "vm", 4 * GIB, OPT1)
        assert spans(fl) == before
        release(twin, granted)
        twin.check_invariants()
        assert spans(twin) == before


class TestAllocate:
    def test_exact_fit_takes_whole_segment(self):
        fl = flist((0, 4 * GIB))
        alloc = allocate(fl, "vm", 4 * GIB, OPT1)
        assert [(s.base, s.limit) for s in alloc.segments] == [(0, 4 * GIB)]
        assert fl.segments == []

    def test_larger_segment_split_from_its_base(self):
        fl = flist((0, 2 * GIB), (6 * GIB, 16 * GIB))
        alloc = allocate(fl, "vm", 4 * GIB, OPT1)
        assert [(s.base, s.limit) for s in alloc.segments] == [(6 * GIB, 10 * GIB)]
        assert spans(fl) == [(0, 2 * GIB), (10 * GIB, 16 * GIB)]

    def test_smallest_first_composition(self):
        fl = flist((0, GIB), (2 * GIB, 3 * GIB), (4 * GIB, 6 * GIB))
        alloc = allocate(fl, "vm", 3 * GIB, OPT1)
        assert [(s.base, s.limit) for s in alloc.segments] == [
            (0, GIB),
            (2 * GIB, 3 * GIB),
            (4 * GIB, 5 * GIB),
        ]
        assert alloc.k == 3
        assert spans(fl) == [(5 * GIB, 6 * GIB)]

    def test_largest_first_composition(self):
        fl = flist((0, GIB), (2 * GIB, 3 * GIB), (4 * GIB, 6 * GIB))
        alloc = allocate(fl, "vm", 3 * GIB, OPT2)
        assert [(s.base, s.limit) for s in alloc.segments] == [
            (4 * GIB, 6 * GIB),
            (0, GIB),
        ]
        assert alloc.k == 2
        assert spans(fl) == [(2 * GIB, 3 * GIB)]

    def test_insufficient_memory_leaves_list_unchanged(self):
        fl = flist((0, GIB))
        with pytest.raises(InsufficientMemoryError):
            allocate(fl, "vm", 2 * GIB, OPT1)
        assert spans(fl) == [(0, GIB)]

    def test_zero_demand_rejected(self):
        with pytest.raises(InvalidSizeError):
            allocate(flist((0, GIB)), "vm", 0, OPT1)

    def test_exact_fit_tie_goes_to_lowest_base(self):
        fl = flist((0, GIB), (2 * GIB, 3 * GIB))
        alloc = allocate(fl, "vm", GIB, OPT2)
        assert alloc.segments[0].base == 0

    def test_largest_tie_goes_to_lowest_base(self):
        fl = flist((0, 2 * GIB), (3 * GIB, 5 * GIB))
        alloc = allocate(fl, "vm", GIB, OPT1)
        assert alloc.segments[0].base == 0
        assert spans(fl) == [(GIB, 2 * GIB), (3 * GIB, 5 * GIB)]

    def test_single_segment_always_yields_k1(self):
        for policy in (OPT1, OPT2):
            fl = flist((0, 8 * GIB))
            assert allocate(fl, "vm", 6 * GIB, policy).k == 1


class TestRelease:
    def test_forward_coalesce(self):
        fl = flist((0, GIB), total=4 * GIB)
        alloc_seg = SegmentDescriptor(GIB, 2 * GIB)
        release(fl, _alloc(alloc_seg))
        assert spans(fl) == [(0, 2 * GIB)]

    def test_bridge_coalesce(self):
        fl = flist((0, GIB), (2 * GIB, 3 * GIB), total=4 * GIB)
        release(fl, _alloc(SegmentDescriptor(GIB, 2 * GIB)))
        assert spans(fl) == [(0, 3 * GIB)]

    def test_disjoint_insert_keeps_order(self):
        fl = flist((0, GIB), total=4 * GIB)
        release(fl, _alloc(SegmentDescriptor(2 * GIB, 3 * GIB)))
        assert spans(fl) == [(0, GIB), (2 * GIB, 3 * GIB)]

    def test_overlap_raises_and_leaves_list_unchanged(self):
        fl = flist((0, 2 * GIB), total=4 * GIB)
        with pytest.raises(OverlapError):
            release(fl, _alloc(SegmentDescriptor(GIB, 3 * GIB)))
        assert spans(fl) == [(0, 2 * GIB)]
        assert fl.sizes == [2 * GIB]

    def test_overlapping_released_segments_raise_and_leave_list_unchanged(self):
        fl = new_machine(1 << 30, 0)
        seg = allocate(fl, "a", 1 << 20, OPT1).segments[0]
        before = (spans(fl), list(fl.sizes), fl.free_bytes, fl.max_segment)
        with pytest.raises(OverlapError):
            release(fl, VMAllocation("a", (seg, seg)))
        assert (spans(fl), fl.sizes, fl.free_bytes, fl.max_segment) == before
        fl.check_invariants()

    @pytest.mark.parametrize("span", [(0, PAGE_SIZE), (1 << 30, (1 << 30) + PAGE_SIZE)],
                             ids=["below-reserved", "past-total"])
    def test_segment_outside_user_region_raises_and_leaves_list_unchanged(self, span):
        fl = new_machine(1 << 30, 1 << 20)
        before = (spans(fl), list(fl.sizes), fl.free_bytes, fl.max_segment)
        with pytest.raises(InvalidSizeError):
            release(fl, _alloc(SegmentDescriptor(*span)))
        assert (spans(fl), fl.sizes, fl.free_bytes, fl.max_segment) == before
        fl.check_invariants()

    def test_release_of_multi_segment_allocation(self):
        fl = flist((0, GIB), (2 * GIB, 3 * GIB), (4 * GIB, 6 * GIB))
        alloc = allocate(fl, "vm", 3 * GIB, OPT1)
        release(fl, alloc)
        assert spans(fl) == [(0, GIB), (2 * GIB, 3 * GIB), (4 * GIB, 6 * GIB)]


def _alloc(*segments):
    return VMAllocation("vm", tuple(segments))


class TestPeek:
    def test_single_segment(self):
        assert peek_segment_count(flist((0, 8 * GIB)), 6 * GIB, OPT1) == 1

    def test_dry_run_matches_allocate(self):
        fl = flist((0, 4 * GIB), (5 * GIB, 9 * GIB))
        assert peek_segment_count(fl, 6 * GIB, OPT2) == 2
        assert spans(fl) == [(0, 4 * GIB), (5 * GIB, 9 * GIB)]  # untouched

    def test_infeasible_is_a_value(self):
        assert peek_segment_count(flist((0, GIB)), 2 * GIB, OPT1) is None


def random_free_list(rng):
    """Up to 40 free segments (a fragmented machine of the ``fragment``
    workload holds up to 39) of odd byte sizes, each after a gap of at least
    one byte; sizes repeat often, so exact fits and size ties occur."""
    common = [rng.randint(1, 9000) for _ in range(3)]
    spans = []
    cursor = 0
    for _ in range(rng.randint(0, 40)):
        base = cursor + rng.randint(1, 5000)
        cursor = base + rng.choice((rng.randint(1, 9000), rng.choice(common)))
        spans.append((base, cursor))
    return flist(*spans, total=cursor + rng.randint(1, 4096))


class TestPlanMatchesTheCopyingPlanner:
    """``_plan`` edits a free list's two columns in place, starting from its
    stored largest size, and ``peek_segment_count`` only counts; they grant,
    leave and count what the copying, two-scan planner does."""

    @pytest.mark.parametrize("policy", [OPT1, OPT2], ids=lambda p: p.value)
    def test_grants_and_remaining_list(self, policy):
        rng = random.Random(23)
        seen = dict.fromkeys(
            ("exact", "split", "composed", "k>=4", "composed, exact last", "infeasible"), 0
        )
        for _ in range(4000):
            fl = random_free_list(rng)
            sizes = [s.size for s in fl.segments]
            # the last choice sums the sizes a composition takes first, so
            # that compositions often end in an exact fit
            taken_first = sorted(sizes, reverse=policy is OPT2)
            demand = rng.choice([
                rng.randint(1, fl.free_bytes + 10),
                rng.choice(sizes or [1]),
                rng.randint(max(sizes, default=0) + 1, fl.free_bytes + 1),
                sum(taken_first[:rng.randint(2, max(2, len(sizes)))]) or 1,
            ])
            before = list(fl.segments)
            expected = plan_by_copy(before, demand, policy)
            peeked = peek_segment_count(fl, demand, policy)
            assert fl.segments == before
            if expected is None:
                seen["infeasible"] += 1
                assert peeked is None
                with pytest.raises(InsufficientMemoryError):
                    allocate(fl, "vm", demand, policy)
                assert fl.segments == before
                continue
            grants, remaining = expected
            if len(grants) > 1:
                seen["composed"] += 1
                seen["k>=4"] += len(grants) >= 4
                seen["composed, exact last"] += grants[-1] in before
            else:
                seen["exact" if grants[0] in before else "split"] += 1
            bases, sizes = list(fl.bases), list(fl.sizes)
            assert _plan(bases, sizes, demand, policy, fl.max_segment) == grants
            assert bases == [s.base for s in remaining]
            assert sizes == [s.size for s in remaining]
            assert peeked == len(grants)
            assert allocate(fl, "vm", demand, policy).segments == tuple(grants)
            assert fl.segments == remaining
            fl.check_invariants()
        assert min(seen.values()) >= 100, seen

    @pytest.mark.parametrize("policy", [OPT1, OPT2], ids=lambda p: p.value)
    def test_overstated_free_bytes_raise_instead_of_looping(self, policy):
        fl = flist((0, GIB), (2 * GIB, 3 * GIB))
        fl.free_bytes += 4 * GIB
        with pytest.raises(ValueError, match="free_bytes"):
            fl.check_invariants()
        with pytest.raises(AllocatorError, match="free_bytes counter"):
            peek_segment_count(fl, 3 * GIB, policy)
        with pytest.raises(AllocatorError, match="free_bytes counter"):
            allocate(fl, "vm", 3 * GIB, policy)


def random_ops_machine(seed, steps=300, pages=4096):
    """Drive a small machine with a random mixed workload plus the oracle."""
    rng = random.Random(seed)
    total = pages * PAGE_SIZE
    fl = new_machine(total, 0)
    oracle = BitmapOracle(total)
    live = {}
    for step_no in range(steps):
        do_release = live and (rng.random() < 0.45 or fl.free_bytes == 0)
        if do_release:
            vm = rng.choice(sorted(live))
            alloc = live.pop(vm)
            release(fl, alloc)
            oracle.mark_released(alloc.segments)
        else:
            size = rng.randint(1, max(1, oracle.free_pages // 2)) * PAGE_SIZE
            policy = rng.choice([OPT1, OPT2])
            if size > fl.free_bytes:
                with pytest.raises(InsufficientMemoryError):
                    allocate(fl, f"vm{step_no}", size, policy)
                continue
            alloc = allocate(fl, f"vm{step_no}", size, policy)
            live[f"vm{step_no}"] = alloc
            oracle.mark_allocated(alloc.segments)
        fl.check_invariants()
        assert fl.free_bytes == oracle.free_pages * PAGE_SIZE
        oracle.assert_matches_free_list(fl)
    return fl, oracle, live


class TestRandomizedInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_bitmap_oracle_agrees_at_every_step(self, seed):
        fl, oracle, live = random_ops_machine(seed)
        for vm in sorted(live):
            release(fl, live[vm])
            oracle.mark_released(live[vm].segments)
        oracle.assert_matches_free_list(fl)
        assert spans(fl) == [(0, fl.total_bytes)]  # all frees coalesce back

    def test_stale_counters_fail_the_invariant_check(self):
        fl = flist((0, GIB), (2 * GIB, 5 * GIB))
        assert (fl.free_bytes, fl.max_segment) == (4 * GIB, 3 * GIB)
        fl.check_invariants()
        for counter in ("free_bytes", "max_segment"):
            stale = copy.deepcopy(fl)
            setattr(stale, counter, getattr(stale, counter) - PAGE_SIZE)
            with pytest.raises(ValueError, match=counter):
                stale.check_invariants()
        # a size edited without the counters leaves free_bytes stale
        stale = copy.deepcopy(fl)
        stale.sizes[0] -= PAGE_SIZE
        with pytest.raises(ValueError, match="free_bytes"):
            stale.check_invariants()

    @pytest.mark.parametrize("column, edit", [
        ("bases", lambda fl: fl.bases.pop()),
        ("sizes", lambda fl: fl.sizes.append(GIB)),
        ("sizes", lambda fl: fl.sizes.__setitem__(0, 0)),
        ("sizes", lambda fl: fl.sizes.__setitem__(0, -GIB)),
        ("bases", lambda fl: fl.bases.__setitem__(1, 5 * GIB)),  # past total_bytes
        ("bases", lambda fl: fl.bases.__setitem__(0, -PAGE_SIZE)),  # below reserved
        ("bases", lambda fl: fl.bases.__setitem__(1, GIB)),  # abuts its neighbour
        ("bases", lambda fl: fl.bases.__setitem__(1, GIB // 2)),  # overlaps it
        ("bases", lambda fl: fl.bases.reverse()),  # unordered
    ], ids=["short bases", "long sizes", "zero size", "negative size", "past total",
            "below reserved", "uncoalesced", "overlapping", "unordered"])
    def test_broken_columns_fail_the_invariant_check(self, column, edit):
        """Each check names the column at fault. The column checks run before
        the counter checks, which some of these edits would also trip."""
        fl = flist((0, GIB), (2 * GIB, 5 * GIB), total=6 * GIB)
        edit(fl)
        with pytest.raises(ValueError, match=column):
            fl.check_invariants()

    def test_conservation_with_reservation(self):
        fl = new_machine(64 * PAGE_SIZE, 16 * PAGE_SIZE)
        a = allocate(fl, "a", 8 * PAGE_SIZE, OPT1)
        b = allocate(fl, "b", 24 * PAGE_SIZE, OPT2)
        allocated = a.total_bytes + b.total_bytes
        assert fl.free_bytes + allocated + fl.reserved_bytes == fl.total_bytes


@st.composite
def machine_and_ops(draw):
    n_ops = draw(st.integers(10, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    return n_ops, seed


@st.composite
def fragmented_list(draw):
    """Up to 12 free segments of 1-8 pages, each after a 1-8 page hole."""
    spans = []
    cursor = 0
    for hole, pages in draw(
        st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8)), max_size=12)
    ):
        base = cursor + hole * PAGE_SIZE
        cursor = base + pages * PAGE_SIZE
        spans.append((base, cursor))
    return flist(*spans, total=cursor + PAGE_SIZE)


@st.composite
def release_case(draw):
    """A machine laid out in runs of 1-4 pages above a reservation of 0-2
    pages, each run free, released or held by another VM: the free list
    holds the free runs, coalesced, and the released runs, each one segment
    and in drawn order, are the allocation to release."""
    reserved = draw(st.integers(0, 2)) * PAGE_SIZE
    runs = draw(st.lists(
        st.tuples(st.sampled_from(("free", "released", "held")), st.integers(1, 4)),
        min_size=1, max_size=14,
    ))
    layout = {"free": [], "released": [], "held": []}
    cursor = reserved
    for label, pages in runs:
        seg = SegmentDescriptor(cursor, cursor + pages * PAGE_SIZE)
        cursor = seg.limit
        free = layout["free"]
        if label == "free" and free and free[-1].limit == seg.base:
            free[-1] = SegmentDescriptor(free[-1].base, seg.limit)
        else:
            layout[label].append(seg)
    fl = FreeSegmentList(0, cursor, reserved, layout["free"])
    return fl, draw(st.permutations(layout["released"])), layout["held"]


class TestReleaseMatchesTheTwoPassRelease:
    """``release`` bisects each segment once and inserts from the highest
    base down; it leaves the list that bisecting twice and inserting from
    the lowest base up leaves, and the bitmap's free runs."""

    CASES = ("two in one gap", "abutting released", "abuts both neighbours",
             "into an empty list", "merges with nothing", "merges below",
             "merges above", "merges both")

    def test_multi_segment_release(self):
        seen = dict.fromkeys(self.CASES, 0)

        @settings(max_examples=400, deadline=None)
        @given(release_case())
        def check(case):
            fl, released, held = case
            free = list(fl.segments)
            segs = sorted(released, key=lambda s: s.base)
            slots = [bisect.bisect_right(free, s.base, key=lambda f: f.base) for s in segs]
            bases, limits = {f.base for f in free}, {f.limit for f in free}
            seen["two in one gap"] += len(set(slots)) < len(slots)
            seen["abutting released"] += any(a.limit == b.base for a, b in zip(segs, segs[1:]))
            seen["abuts both neighbours"] += any(
                s.base in limits and s.limit in bases for s in segs
            )
            seen["into an empty list"] += not free and bool(segs)
            # how each segment joins the runs it meets, inserted from the
            # highest base down: the free run below, or the free run or the
            # segment inserted just before it above
            for j, s in enumerate(segs):
                below = s.base in limits
                above = s.limit in bases or j + 1 < len(segs) and segs[j + 1].base == s.limit
                seen[("merges with nothing", "merges below", "merges above",
                      "merges both")[below + 2 * above]] += 1
            expected = release_two_pass(fl, released)
            oracle = BitmapOracle(fl.total_bytes, fl.reserved_bytes)
            oracle.mark_allocated(released + held)
            oracle.mark_released(released)
            release(fl, VMAllocation("vm", tuple(released)))
            assert fl.segments == expected
            oracle.assert_matches_free_list(fl)
            fl.check_invariants()

        check()
        assert min(seen.values()) > 0, seen


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(fragmented_list(), st.sampled_from([OPT1, OPT2]), st.data())
    def test_infeasible_exactly_when_demand_exceeds_free_bytes(self, fl, policy, data):
        demand = data.draw(st.integers(1, fl.free_bytes // PAGE_SIZE + 3)) * PAGE_SIZE
        before = list(fl.segments)
        k = peek_segment_count(fl, demand, policy)
        assert (k is None) == (demand > fl.free_bytes)
        if k is None:
            with pytest.raises(InsufficientMemoryError):
                allocate(fl, "vm", demand, policy)
            assert fl.segments == before
        else:
            assert allocate(fl, "vm", demand, policy).k == k
        fl.check_invariants()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 1 << 20), st.integers(0, 1 << 20))
    def test_user_region_is_the_buddy_allocators(self, total, reserved):
        # the whole pages of [reserved, total), or an error when there are none
        try:
            buddy = BuddyAllocator(total, reserved)
        except InvalidSizeError:
            with pytest.raises(InvalidSizeError):
                new_machine(total, reserved)
            return
        fl = new_machine(total, reserved)
        assert fl.free_runs() == buddy.free_runs()
        assert fl.free_bytes == buddy.free_bytes
        fl.check_invariants()

    @settings(max_examples=40, deadline=None)
    @given(machine_and_ops())
    def test_invariants_hold_under_random_workloads(self, params):
        n_ops, seed = params
        random_ops_machine(seed, steps=n_ops, pages=512)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 400),
        st.sampled_from([OPT1, OPT2]),
        st.integers(0, 2**32 - 1),
    )
    def test_determinism(self, size_pages, policy, seed):
        fl, _, _ = random_ops_machine(seed, steps=40, pages=512)
        demand = size_pages * PAGE_SIZE
        first = peek_segment_count(fl, demand, policy)
        if first is None:
            return
        one = allocate(copy.deepcopy(fl), "x", demand, policy)
        two = allocate(copy.deepcopy(fl), "x", demand, policy)
        assert one == two
        assert one.k == first

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_no_two_adjacent_free_segments_after_release(self, seed):
        fl, _, live = random_ops_machine(seed, steps=60, pages=512)
        for vm in sorted(live):
            release(fl, live[vm])
            for a, b in zip(fl.segments, fl.segments[1:]):
                assert a.limit < b.base


def fragmenting_replay(grant, release_vm, free_runs, seed=11, steps=2000, pages=2048):
    """sha256 over every grant's (base, limit) spans and the free runs after
    each op of a seeded alloc/release sequence that fills and fragments a
    machine of ``pages`` user pages. Also returns each allocation's k, 0 for
    a refused one."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    live = []
    ks = []
    for step_no in range(steps):
        if live and rng.random() < 0.45:
            release_vm(live.pop(rng.randrange(len(live))))
        else:
            try:
                alloc = grant(f"vm{step_no}", rng.randint(1, pages // 8) * PAGE_SIZE)
            except InsufficientMemoryError:
                digest.update(b"full;")
                ks.append(0)
            else:
                live.append(alloc)
                ks.append(alloc.k)
                digest.update(repr([(s.base, s.limit) for s in alloc.segments]).encode())
        digest.update(repr(free_runs()).encode())
    return digest.hexdigest(), ks


# Recorded while segments still carried an allocation date; dropping it moved
# no grant.
GOLDEN_GRANT_SPANS = {
    "opt1": "2282d393f16a58e93c5b1891071ebf574206b2a17e0be83533b5e4ba0545c755",
    "opt2": "3dc58d04c213422c028e318e99124923285feb5560f8cb1ac6639a5970be21a0",
    "buddy": "bf2d15260a4999dd634c32ed8595f57b395069b6060ed0955692e2a41d7a2139",
}


class TestGoldenGrantSpans:
    """Pins where every grant lands, not just its k: ``core()`` keeps only k
    and the final free list, so a changed split or composition would pass the
    report goldens unseen."""

    @pytest.mark.parametrize("policy", [OPT1, OPT2], ids=lambda p: p.value)
    def test_segment_list_grants_match_golden_digest(self, policy):
        fl = new_machine(2112 * PAGE_SIZE, 64 * PAGE_SIZE)
        digest, ks = fragmenting_replay(
            lambda vm, demand: allocate(fl, vm, demand, policy),
            lambda alloc: release(fl, alloc),
            fl.free_runs,
        )
        assert max(ks) > 3 and 0 in ks  # composes past n = 3 and runs full
        assert digest == GOLDEN_GRANT_SPANS[policy.value]

    def test_buddy_grants_match_golden_digest(self):
        buddy = BuddyAllocator(2112 * PAGE_SIZE, 64 * PAGE_SIZE)
        digest, ks = fragmenting_replay(
            buddy.allocate, lambda alloc: buddy.release(alloc.vm_id), buddy.free_runs
        )
        assert max(ks) > 3 and 0 in ks
        assert digest == GOLDEN_GRANT_SPANS["buddy"]
