"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 5's fleet replays
are shared with criterion 8 through a session fixture.
"""

import os
import random
import time
from contextlib import contextmanager

import pytest

from dsegsim.engine import reselect_option, run
from dsegsim.mmu import (
    DsnViolation,
    WalkMode,
    WorkloadCounters,
    estimate_runtime_dsn,
    translate_gpa,
    virtualization_cost,
)
from dsegsim.report import latency_stats, segment_histogram
from dsegsim.scheduler import (
    MachineView,
    NoCandidateError,
    SchedulerConfig,
    SimVariant,
    filter_min_segments,
)
from dsegsim.segments import (
    AllocationPolicy,
    FreeSegmentList,
    InsufficientMemoryError,
    PAGE_SIZE,
    SegmentDescriptor,
    allocate,
    new_machine,
    peek_segment_count,
    release,
)
from dsegsim.trace import (
    DEFAULT_FLAVORS,
    Distribution,
    FleetSpec,
    Generation,
    build_fleet,
    default_fleet_spec,
    gen_synthetic,
    load_trace,
)
from oracle import BitmapOracle, filter_resources
from test_mmu import random_register_file
from test_scheduler import (
    composition_beats_smallest_log,
    smallest_first_preserves_big_hole_log,
)

GIB = 1 << 30
OPT1 = AllocationPolicy.SMALLEST_FIRST
OPT2 = AllocationPolicy.LARGEST_FIRST


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num} {name}: PASS")


# ---------------------------------------------------------------- criterion 1

def test_c1_allocator_bitmap_oracle():
    with criterion(1, "allocator-oracle-100k-ops"):
        total = 16 * GIB
        rng = random.Random(20260810)
        fl = new_machine(total, 0)
        oracle = BitmapOracle(total)
        live = {}
        started = time.perf_counter()
        size_classes = ((1, 8), (8, 512), (512, 65536), (65536, 1 << 20))
        weights = (40, 30, 20, 10)
        structural_every = 2000
        for step_no in range(100_000):
            if live and (rng.random() < 0.5 or fl.free_bytes == 0):
                vm = live.pop(rng.choice(sorted(live)))
                release(fl, vm)
                oracle.mark_released(vm.segments)
            else:
                lo, hi = rng.choices(size_classes, weights)[0]
                size = rng.randint(lo, hi) * PAGE_SIZE
                policy = rng.choice((OPT1, OPT2))
                if size > fl.free_bytes:
                    with pytest.raises(InsufficientMemoryError):
                        allocate(fl, f"vm{step_no}", size, policy)
                else:
                    alloc = allocate(fl, f"vm{step_no}", size, policy)
                    live[f"vm{step_no}"] = alloc
                    oracle.mark_allocated(alloc.segments)
            # every step: exact byte accounting plus the free-list invariants
            fl.check_invariants()
            assert fl.free_bytes == oracle.free_pages * PAGE_SIZE
            if step_no % structural_every == 0:
                oracle.assert_matches_free_list(fl)
        oracle.assert_matches_free_list(fl)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"


# ---------------------------------------------------------------- criterion 2

def test_c2_translation_oracle():
    with criterion(2, "translation-oracle-1000-files"):
        rng = random.Random(2)
        for _ in range(1000):
            regs, guest_bytes = random_register_file(rng, max_k=8, max_pages=64)
            gbs = regs.guest_boundaries
            table = {}
            for i in range(regs.k):
                start, end = regs.host_segment(i)
                for off in range(0, end - start, PAGE_SIZE):
                    table[gbs[i] + off] = start + off
            assert len(table) == guest_bytes // PAGE_SIZE
            for gpa, hpa in table.items():
                assert translate_gpa(regs, gpa) == hpa
            for _ in range(1000):
                bad = guest_bytes + rng.randrange(0, 8 * guest_bytes)
                try:
                    translate_gpa(regs, bad)
                except DsnViolation:
                    continue
                raise AssertionError(f"gpa {bad:#x} beyond {guest_bytes:#x} translated")


# ---------------------------------------------------------------- criterion 3

def test_c3_cost_formula_exactness_and_monotonicity():
    with criterion(3, "cost-model-exactness"):
        c = WorkloadCounters(t_1d=10.0, n_tlb=1e9, t_reg2reg=5e-9)
        assert estimate_runtime_dsn(c) == 15.0
        assert estimate_runtime_dsn(WorkloadCounters(t_1d=10.0)) == 10.0
        assert estimate_runtime_dsn(WorkloadCounters()) == 0.0

        c = WorkloadCounters(c_1d=100, n_tlb=1e6)
        assert virtualization_cost(WalkMode.DSN, c).total_cycles == 1e8
        c = WorkloadCounters(c_1d=100, c_2d=600, n_tlb=777)
        assert (
            virtualization_cost(WalkMode.EPT, c).total_cycles
            / virtualization_cost(WalkMode.DSN, c).total_cycles
            == 6
        )
        c = WorkloadCounters(c_1d=100, n_tlb=5000, n_exit=0, c_exit=900, c_handler=80)
        assert (
            virtualization_cost(WalkMode.SHADOW, c).total_cycles
            == virtualization_cost(WalkMode.DSN, c).total_cycles
        )

        rng = random.Random(3)
        for _ in range(10_000):
            c1d = rng.uniform(0, 1000)
            counters = WorkloadCounters(
                n_tlb=rng.uniform(0, 1e9),
                n_exit=rng.uniform(0, 1e7),
                c_1d=c1d,
                c_2d=c1d + rng.uniform(0, 2000),  # nested walk never cheaper
                c_exit=rng.uniform(0, 5000),
                c_handler=rng.uniform(0, 5000),
            )
            dsn = virtualization_cost(WalkMode.DSN, counters).total_cycles
            ept = virtualization_cost(WalkMode.EPT, counters).total_cycles
            sha = virtualization_cost(WalkMode.SHADOW, counters).total_cycles
            assert ept >= dsn
            assert sha >= dsn


# ---------------------------------------------------------------- criterion 4

def test_c4_single_segment_dominance_on_arrival_only_traces():
    with criterion(4, "single-segment-dominance"):
        for seed in (7, 8):
            trace = gen_synthetic(
                2000, DEFAULT_FLAVORS, Distribution.exponential(50), None, seed=seed
            )
            for variant in (SimVariant.PLACEMENT_OPT1, SimVariant.PLACEMENT_OPT2):
                report = run(trace, default_fleet_spec(20), variant, n=3, seed=seed)
                assert report.placed > 0
                hist = segment_histogram(report)
                assert hist.as_tuple() == (100.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------- criterion 5

CHURN_SEED = 11
CHURN_FLEET_MACHINES = 20


@pytest.fixture(scope="session")
def churn_reports():
    """10^4-VM churn trace replayed under all four variants (shared by 5, 8)."""
    trace = gen_synthetic(
        10_000,
        DEFAULT_FLAVORS,
        Distribution.exponential(100),
        Distribution.exponential(15_000),
        seed=CHURN_SEED,
    )
    spec = default_fleet_spec(CHURN_FLEET_MACHINES)
    warmup = gen_synthetic(
        300, DEFAULT_FLAVORS, Distribution.exponential(100),
        Distribution.exponential(15_000), seed=1,
    )
    reports = {}
    for variant in SimVariant:
        run(warmup, default_fleet_spec(4), variant)  # heat code paths pre-timing
        reports[variant] = run(trace, spec, variant, n=3, seed=CHURN_SEED)
    return reports


def test_c5_fragmented_trace_superiority(churn_reports):
    with criterion(5, "fragmented-trace-superiority"):
        pct1 = {
            v: segment_histogram(r).pct_1 for v, r in churn_reports.items()
        }
        assert pct1[SimVariant.PLACEMENT_OPT1] >= 99.0, pct1
        assert pct1[SimVariant.PLACEMENT_OPT2] >= 99.0, pct1
        assert pct1[SimVariant.DYNAMIC] >= 99.0, pct1
        assert pct1[SimVariant.BASELINE] <= 50.0, pct1


@pytest.mark.skipif(
    "DSEGSIM_AZURE_TRACE" not in os.environ,
    reason="set DSEGSIM_AZURE_TRACE to a converted public-cloud trace CSV "
    "(see README) to run the large-scale replay",
)
def test_c5_optional_public_cloud_replay():
    trace = load_trace(os.environ["DSEGSIM_AZURE_TRACE"])
    machines = int(os.environ.get("DSEGSIM_AZURE_MACHINES", "1000"))
    report = run(trace, default_fleet_spec(machines), SimVariant.DYNAMIC, n=3)
    assert segment_histogram(report).pct_1 >= 99.5


# ---------------------------------------------------------------- criterion 6

def test_c6_scheduler_optimality():
    with criterion(6, "scheduler-optimality-1000-fleets"):
        rng = random.Random(6)
        checked = 0
        while checked < 1000:
            fleet = [_random_machine(rng, mid) for mid in range(rng.randint(2, 10))]
            policy = rng.choice((OPT1, OPT2))
            request_mem = rng.randint(1, 8192) * (4 << 20)
            candidates = filter_resources(fleet, 1, request_mem)
            if not candidates:
                continue
            try:
                chosen = filter_min_segments(candidates, request_mem, policy)
            except NoCandidateError:
                continue
            peeked = {
                m.machine_id: peek_segment_count(m.free_list, request_mem, policy)
                for m in candidates
            }
            assert peeked[chosen] is not None
            for k in peeked.values():
                assert k is None or peeked[chosen] <= k
            checked += 1


def _random_machine(rng, mid):
    total = rng.randint(8, 64) * GIB
    segments = []
    cursor = 0
    for _ in range(rng.randint(1, 8)):
        gap = rng.randint(0, 8) * (256 << 20)
        size = rng.randint(1, 24) * (256 << 20)
        if cursor + gap + size > total:
            break
        segments.append(SegmentDescriptor(cursor + gap, cursor + gap + size))
        cursor += gap + size
    if not segments:
        segments = [SegmentDescriptor(0, total)]
    fl = FreeSegmentList(mid, total, 0, segments)
    return MachineView(mid, 64, fl)


# ---------------------------------------------------------------- criterion 7

def test_c7_dynamic_option_selection_flips():
    with criterion(7, "dynamic-option-selection"):
        fleet6 = FleetSpec((Generation("m", 6 * GIB, 16, 100.0),), 1)
        log = composition_beats_smallest_log()
        config = SchedulerConfig(n=2, current_policy=OPT1)
        assert reselect_option(log, fleet6, config) is OPT2
        assert len(log) == 0

        fleet8 = FleetSpec((Generation("m", 8 * GIB, 16, 100.0),), 1)
        log = smallest_first_preserves_big_hole_log()
        config = SchedulerConfig(n=1, current_policy=OPT2)
        assert reselect_option(log, fleet8, config) is OPT1


# ---------------------------------------------------------------- criterion 8

def test_c8_latency_direction(churn_reports):
    with criterion(8, "allocation-latency-direction"):
        ds = latency_stats(churn_reports[SimVariant.DYNAMIC].latencies_ms())
        buddy = latency_stats(churn_reports[SimVariant.BASELINE].latencies_ms())
        assert ds is not None and buddy is not None
        ds_mean, ds_stdev = ds
        buddy_mean, buddy_stdev = buddy
        assert ds_mean < buddy_mean
        assert ds_stdev / ds_mean < buddy_stdev / buddy_mean


# ---------------------------------------------------------------- criterion 9

def test_c9_replay_reversibility():
    with criterion(9, "replay-reversibility"):
        trace = gen_synthetic(
            2000,
            DEFAULT_FLAVORS,
            Distribution.exponential(80),
            Distribution.exponential(20_000),
            seed=9,
        )
        spec = default_fleet_spec(8)
        totals = {m.machine_id: m.free_list.total_bytes for m in build_fleet(spec)}
        for variant in SimVariant:
            report = run(trace, spec, variant, n=3, seed=9)
            assert report.implicit_stops == 0
            for machine_id, runs in report.final_free.items():
                assert runs == ((0, totals[machine_id]),), (variant, machine_id)
