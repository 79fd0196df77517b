import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dsegsim.mmu import (
    CounterFormatError,
    DsnRegisterFile,
    DsnViolation,
    InconsistentAllocationError,
    WalkMode,
    WorkloadCounters,
    build_register_file,
    dsn_reg_ops,
    estimate_runtime_dsn,
    load_counters,
    parse_counters,
    translate_gpa,
    virtualization_cost,
    walk_refs,
)
from dsegsim.segments import PAGE_SIZE, SegmentDescriptor, VMAllocation

GIB = 1 << 30


def _alloc(*spans):
    return VMAllocation("vm", tuple(SegmentDescriptor(b, l) for b, l in spans))


class TestBuildRegisterFile:
    def test_single_segment(self):
        regs = build_register_file(
            _alloc((0x4000_0000, 0x1_4000_0000)), 4 * GIB, n=3
        )
        assert regs.k == 1
        assert regs.gb == ()
        assert regs.hb == (0x4000_0000,)
        assert regs.limit == 0x1_4000_0000

    def test_two_segments_cumulative_boundaries(self):
        regs = build_register_file(
            _alloc(
                (0x1_0000_0000, 0x1_0000_0000 + 2 * GIB),
                (0x3_0000_0000, 0x3_0000_0000 + 2 * GIB),
            ),
            4 * GIB,
            n=3,
        )
        assert regs.gb == (0x8000_0000,)
        assert regs.hb == (0x1_0000_0000, 0x3_0000_0000)
        assert regs.limit == 0x3_8000_0000

    def test_too_many_segments_falls_back(self):
        spans = [(i * 2 * GIB, i * 2 * GIB + GIB) for i in range(4)]
        assert build_register_file(_alloc(*spans), 4 * GIB, n=3) is None

    def test_size_mismatch_rejected(self):
        with pytest.raises(InconsistentAllocationError):
            build_register_file(_alloc((0, GIB)), 2 * GIB, n=3)

    def test_grant_order_is_traversal_order(self):
        # second grant maps the low guest addresses when granted first
        regs = build_register_file(_alloc((4 * GIB, 6 * GIB), (0, GIB)), 3 * GIB, n=3)
        assert regs.hb == (4 * GIB, 0)
        assert translate_gpa(regs, 0) == 4 * GIB
        assert translate_gpa(regs, 2 * GIB) == 0


class TestTranslate:
    def test_single_segment_offset_addition(self):
        regs = DsnRegisterFile(n=3, gb=(), hb=(0x4000_0000,), limit=0x1_4000_0000)
        assert translate_gpa(regs, 0x1000) == 0x4000_1000

    def test_second_segment_lookup(self):
        regs = DsnRegisterFile(
            n=3, gb=(0x8000_0000,), hb=(0x1_0000_0000, 0x3_0000_0000),
            limit=0x3_8000_0000,
        )
        assert translate_gpa(regs, 0x8000_2000) == 0x3_0000_2000

    def test_boundary_violation_beyond_guest_memory(self):
        regs = DsnRegisterFile(n=3, gb=(), hb=(0x4000_0000,), limit=0x1_4000_0000)
        with pytest.raises(DsnViolation):
            translate_gpa(regs, 0x1_0000_0000)  # first byte past 4 GiB

    def test_negative_gpa_violates(self):
        regs = DsnRegisterFile(n=1, gb=(), hb=(0,), limit=GIB)
        with pytest.raises(DsnViolation):
            translate_gpa(regs, -1)

    def test_last_valid_byte_translates(self):
        regs = DsnRegisterFile(n=1, gb=(), hb=(GIB,), limit=2 * GIB)
        assert translate_gpa(regs, GIB - 1) == 2 * GIB - 1


def random_register_file(rng, max_k=8, max_pages=256):
    """Random disjoint host segments; guest size is their sum."""
    k = rng.randint(1, max_k)
    sizes = [rng.randint(1, max_pages) * PAGE_SIZE for _ in range(k)]
    spans = []
    cursor = 0
    for size in sizes:
        cursor += rng.randint(1, 64) * PAGE_SIZE  # gap keeps segments disjoint
        spans.append((cursor, cursor + size))
        cursor += size
    order = list(range(k))
    rng.shuffle(order)  # traversal order independent of address order
    alloc = _alloc(*(spans[i] for i in order))
    return build_register_file(alloc, sum(sizes), n=max_k), sum(sizes)


class TestTranslationOracle:
    def test_page_granular_expansion_matches(self):
        rng = random.Random(42)
        for _ in range(50):
            regs, guest_bytes = random_register_file(rng)
            table = {}
            gbs = regs.guest_boundaries
            for i in range(regs.k):
                start, end = regs.host_segment(i)
                for off in range(0, end - start, PAGE_SIZE):
                    table[gbs[i] + off] = start + off
            assert len(table) == guest_bytes // PAGE_SIZE
            for gpa, hpa in table.items():
                assert translate_gpa(regs, gpa) == hpa
            for _ in range(50):
                bad = guest_bytes + rng.randrange(0, 4 * guest_bytes)
                with pytest.raises(DsnViolation):
                    translate_gpa(regs, bad)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_piecewise_linearity(self, seed, data):
        regs, guest_bytes = random_register_file(random.Random(seed))
        gbs = regs.guest_boundaries + (guest_bytes,)
        i = data.draw(st.integers(0, regs.k - 1))
        lo, hi = gbs[i], gbs[i + 1]
        gpa = data.draw(st.integers(lo, hi - 1))
        delta = data.draw(st.integers(0, hi - 1 - gpa))
        assert translate_gpa(regs, gpa + delta) == translate_gpa(regs, gpa) + delta

    def test_contiguity_of_translatable_space(self):
        rng = random.Random(7)
        regs, guest_bytes = random_register_file(rng, max_k=4, max_pages=16)
        for gpa in range(0, guest_bytes, PAGE_SIZE):
            translate_gpa(regs, gpa)
        with pytest.raises(DsnViolation):
            translate_gpa(regs, guest_bytes)


class TestWalkRefs:
    def test_nested_walk_costs_24_references(self):
        assert walk_refs(WalkMode.EPT) == 24

    def test_register_translation_costs_4_references(self):
        assert walk_refs(WalkMode.DSN) == 4

    def test_native_and_shadow_walk_once_per_level(self):
        assert walk_refs(WalkMode.NATIVE_1D) == 4
        assert walk_refs(WalkMode.SHADOW) == 4

    def test_level_override(self):
        assert walk_refs(WalkMode.EPT, levels=3) == 15
        with pytest.raises(ValueError):
            walk_refs(WalkMode.DSN, levels=0)


class TestRegOps:
    def test_four_levels_cost_eight_ops(self):
        assert dsn_reg_ops(levels=4) == 8

    def test_one_level(self):
        assert dsn_reg_ops(levels=1) == 2

    def test_zero_levels_rejected(self):
        with pytest.raises(ValueError):
            dsn_reg_ops(levels=0)


class TestRuntimeEstimate:
    def test_no_misses(self):
        c = WorkloadCounters(t_1d=10.0)
        assert estimate_runtime_dsn(c) == 10.0

    def test_miss_cost_added(self):
        c = WorkloadCounters(t_1d=10.0, n_tlb=1e9, t_reg2reg=5e-9)
        assert estimate_runtime_dsn(c) == 15.0

    def test_all_zero(self):
        assert estimate_runtime_dsn(WorkloadCounters()) == 0.0


class TestVirtualizationCost:
    def test_register_mode_walk_cycles(self):
        c = WorkloadCounters(c_1d=100, n_tlb=1e6)
        cost = virtualization_cost(WalkMode.DSN, c)
        assert cost.total_cycles == 1e8
        assert cost.exit_cycles == 0

    def test_shadow_without_exits_equals_register_mode(self):
        c = WorkloadCounters(c_1d=100, n_tlb=1e6, n_exit=0, c_exit=500, c_handler=50)
        assert (
            virtualization_cost(WalkMode.SHADOW, c).total_cycles
            == virtualization_cost(WalkMode.DSN, c).total_cycles
        )

    def test_nested_to_register_ratio(self):
        c = WorkloadCounters(c_1d=100, c_2d=600, n_tlb=12345)
        ept = virtualization_cost(WalkMode.EPT, c).total_cycles
        dsn = virtualization_cost(WalkMode.DSN, c).total_cycles
        assert ept / dsn == 6

    def test_shadow_exit_term(self):
        c = WorkloadCounters(c_1d=10, n_tlb=100, n_exit=7, c_exit=30, c_handler=20)
        cost = virtualization_cost(WalkMode.SHADOW, c)
        assert cost.walk_cycles == 1000
        assert cost.exit_cycles == 7 * 50
        assert cost.total_cycles == 1000 + 350

    def test_breakdown_components_sum(self):
        c = WorkloadCounters(c_1d=3, c_2d=9, n_tlb=11, n_exit=2, c_exit=5, c_handler=1)
        for mode in WalkMode:
            cost = virtualization_cost(mode, c)
            assert cost.total_cycles == cost.walk_cycles + cost.exit_cycles

    def test_negative_counters_rejected(self):
        with pytest.raises(ValueError):
            WorkloadCounters(n_tlb=-1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_counters_rejected(self, value):
        with pytest.raises(ValueError, match="must be finite"):
            WorkloadCounters(c_1d=value)


class TestCounterFile:
    def test_round_trip(self, tmp_path):
        text = (
            "# cycles\n"
            "c_1d = 100\n"
            "c_2d = 600   # nested walk\n"
            "n_tlb = 1e6\n"
            "\n"
            "t_reg2reg = 2.5e-9\n"
        )
        path = tmp_path / "counters.txt"
        path.write_text(text)
        c = load_counters(path)
        assert c.c_1d == 100 and c.c_2d == 600
        assert c.n_tlb == 1e6 and c.t_reg2reg == 2.5e-9
        assert c.n_exit == 0  # unset counters default to zero

    def test_unknown_name_reported_with_line(self):
        with pytest.raises(CounterFormatError) as exc:
            parse_counters("c_1d = 1\nbogus = 2\n")
        assert str(exc.value).startswith("line 2: ")

    def test_bad_number_reported(self):
        with pytest.raises(CounterFormatError):
            parse_counters("c_1d = fast\n")

    def test_missing_equals_reported(self):
        with pytest.raises(CounterFormatError):
            parse_counters("c_1d 1\n")

    def test_duplicate_rejected(self):
        with pytest.raises(CounterFormatError):
            parse_counters("c_1d = 1\nc_1d = 2\n")

    def test_negative_rejected(self):
        with pytest.raises(CounterFormatError):
            parse_counters("c_1d = -5\n")

    @pytest.mark.parametrize("brk", ["\x0c", "\x85", "\u2028"], ids=["form-feed", "nel", "ls"])
    def test_a_line_break_that_is_not_lf_or_cr_stays_in_its_comment(self, brk, tmp_path):
        """Lines break at LF, CR and CRLF only, as a text file's lines do."""
        text = f"# page{brk}break\nc_1d = 5\r\nc_2d = 6 # {brk} = 7\rn_tlb = 1{brk}\n"
        path = tmp_path / "counters.txt"
        path.write_text(text, encoding="utf-8", newline="")
        for counters in (parse_counters(text), load_counters(path)):
            assert (counters.c_1d, counters.c_2d, counters.n_tlb) == (5, 6, 1)
        with pytest.raises(CounterFormatError) as exc:
            parse_counters(f"# {brk}\nc_1d = 1\r\nbogus{brk} = 2\n")
        assert str(exc.value).startswith("line 3: unknown counter")

    @pytest.mark.parametrize("value", ["-5", "nan", "inf", "-inf", "1e400"])
    def test_negative_or_non_finite_reported_with_its_line(self, value):
        with pytest.raises(CounterFormatError) as exc:
            parse_counters(f"c_1d = 1\n\nc_2d = {value}\n")
        assert str(exc.value).startswith("line 3: counter c_2d must be finite and non-negative")


class TestRegisterFileValidation:
    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            DsnRegisterFile(n=1, gb=(GIB,), hb=(0, 2 * GIB), limit=3 * GIB)

    def test_non_increasing_boundaries_rejected(self):
        with pytest.raises(ValueError):
            DsnRegisterFile(n=3, gb=(2 * GIB, GIB), hb=(0, 4 * GIB, 8 * GIB), limit=9 * GIB)

    def test_overlapping_host_segments_rejected(self):
        with pytest.raises(ValueError):
            DsnRegisterFile(n=2, gb=(GIB,), hb=(0, GIB // 2), limit=GIB // 2 + GIB)
