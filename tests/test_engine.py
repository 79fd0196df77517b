import dataclasses
import gc
import hashlib
import json
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dsegsim import engine
from dsegsim.baseline import BuddyAllocator
from dsegsim.engine import event_order, finish, new_state, run, step
from dsegsim.report import emit
from dsegsim.scheduler import SchedulerConfig, SimVariant, fitting_machines
from dsegsim.segments import PAGE_SIZE, AllocationPolicy, new_machine
from dsegsim.trace import (
    DEFAULT_FLAVORS,
    MAX_TIME,
    Distribution,
    EventKind,
    FleetSpec,
    Generation,
    build_fleet,
    default_fleet_spec,
    gen_synthetic,
    start_event,
    stop_event,
)
from oracle import (
    BitmapOracle,
    episodic_fleet_and_trace,
    filter_resources,
    replay as reference_replay,
)

GIB = 1 << 30

VARIANTS = list(SimVariant)


def one_machine_spec(ram_gib=16, cores=8):
    return FleetSpec((Generation("m", ram_gib * GIB, cores, 100.0),), 1)


class TestRun:
    def test_single_vm_gets_one_segment(self):
        trace = [start_event("vm1", 0, 2, 4 * GIB)]
        report = run(trace, one_machine_spec(), SimVariant.PLACEMENT_OPT1)
        assert report.placed == 1
        assert report.rejections == 0
        assert report.records[0].k == 1
        assert report.records[0].mode == "dsn"

    def test_bootstorm_overflow_counts_rejections(self):
        # 5 VMs of 6 GiB into 16 GiB: only 2 fit
        trace = [start_event(f"vm{i}", 0, 1, 6 * GIB) for i in range(5)]
        for variant in VARIANTS:
            report = run(trace, one_machine_spec(), variant)
            assert report.placed == 2
            assert report.rejections == 3
            assert report.placed + report.rejections == report.start_count

    def test_core_exhaustion_rejects(self):
        trace = [start_event(f"vm{i}", 0, 4, GIB) for i in range(3)]
        report = run(trace, one_machine_spec(cores=8), SimVariant.PLACEMENT_OPT2)
        assert report.placed == 2
        assert report.rejections == 1

    def test_identical_runs_identical_core_reports(self):
        trace = [start_event(f"vm{i}", i, 1, (1 + i % 3) * GIB) for i in range(30)]
        trace += [stop_event(f"vm{i}", 40 + i) for i in range(0, 30, 2)]
        for variant in VARIANTS:
            a = run(trace, default_fleet_spec(5), variant, seed=3)
            b = run(trace, default_fleet_spec(5), variant, seed=3)
            assert a.core() == b.core()

    def test_fallback_mode_when_k_exceeds_n(self):
        spec = one_machine_spec(ram_gib=8, cores=32)
        trace = []
        t = 0
        # fragment the single machine: carve 1G pieces, free alternating ones
        for i in range(8):
            trace.append(start_event(f"fill{i}", t, 1, GIB))
            t += 1
        for i in range(0, 8, 2):
            trace.append(stop_event(f"fill{i}", t))
            t += 1
        trace.append(start_event("big", t, 1, 3 * GIB))
        report = run(trace, spec, SimVariant.PLACEMENT_OPT1, n=2)
        big = [r for r in report.records if r.vm_id == "big"][0]
        assert big.k == 3
        assert big.mode == "fallback"


class TestStepReturn:
    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
    def test_the_placed_vms_record_else_none(self, variant):
        state = new_state(one_machine_spec(ram_gib=4), variant)
        placed = step(state, start_event("a", 0, 1, GIB))
        assert placed is state.records[-1]
        assert placed.vm_id == "a"
        assert step(state, start_event("a", 1, 1, GIB)) is None  # a duplicate start
        assert state.anomalies == 1
        assert step(state, start_event("big", 2, 1, 8 * GIB)) is None  # rejected
        assert state.rejections == 1
        assert step(state, stop_event("a", 3)) is None
        assert step(state, stop_event("big", 4)) is None
        placed = step(state, start_event("b", 5, 1, GIB))
        assert placed is state.records[-1]
        assert [r.vm_id for r in state.records] == ["a", "b"]


class TestBaselineSeeding:
    def test_one_seed_per_shape_shared_until_a_machines_first_grant(self, monkeypatch):
        seeded = []
        seed_region = BuddyAllocator._seed_region

        def counting_seed_region(buddy):
            seeded.append((buddy.total_bytes, buddy.reserved_bytes))
            seed_region(buddy)

        monkeypatch.setattr(BuddyAllocator, "_seed_region", counting_seed_region)
        spec = default_fleet_spec(200, reserved_bytes=3 * GIB + 5)
        state = new_state(spec, SimVariant.BASELINE)
        for event in event_order(gen_synthetic(
            300, DEFAULT_FLAVORS, Distribution.exponential(120),
            Distribution.exponential(20000), 13,
        )):
            step(state, event)
        read = []
        free_runs = BuddyAllocator.free_runs
        monkeypatch.setattr(BuddyAllocator, "free_runs",
                            lambda buddy: read.append(buddy) or free_runs(buddy))
        finish(state)
        shapes = {(g.ram_bytes, spec.reserved_bytes) for g in spec.generations}
        assert len(shapes) == 4  # Gen4 and Gen6 share 192 GiB
        granted = sorted({r.machine_id for r in state.records})
        assert 0 < len(granted) < 200
        granted_shapes = {
            (state.machines[machine_id].free_list.total_bytes, spec.reserved_bytes)
            for machine_id in granted
        }
        assert len(granted_shapes) == 1  # the baseline grants from one shape of four
        # one seed per granted shape, none for a shape never granted
        assert sorted(seeded) == sorted(granted_shapes)
        assert state.seeds.keys() == granted_shapes
        assert not state.seeds.keys() & (shapes - granted_shapes)
        for shape, seed in state.seeds.items():
            # no seed was granted from: each still equals a fresh one
            assert vars(seed) == vars(BuddyAllocator(*shape))
        for m, built in zip(state.machines, build_fleet(spec)):
            if m.machine_id not in granted:
                untouched = new_machine(
                    built.free_list.total_bytes, spec.reserved_bytes, m.machine_id
                )
                assert m.free_list == untouched
        owners = [state.machines[machine_id].free_list for machine_id in granted]
        assert all(isinstance(b, BuddyAllocator) for b in owners)
        assert [b.machine_id for b in owners] == granted
        # finish reads each granted machine's allocator once, and no seed
        assert sorted(map(id, read)) == sorted(map(id, owners))
        containers = [
            c for b in (*state.seeds.values(), *owners)
            for c in (*b._heaps, *b._sets, b._owned)
        ]
        assert len({id(c) for c in containers}) == len(containers)

    @staticmethod
    def shaped_fleet_and_trace(rng):
        """2-4 generations of random, often odd, sizes over an odd or zero
        reservation, more machines than the trace needs, and churn in odd
        byte sizes that also rejects VMs for cores and for memory."""
        count = rng.randint(2, 4)
        generations = tuple(
            Generation(f"g{i}", rng.randint(2, 16) * GIB + rng.choice((0, rng.randint(1, GIB))),
                       rng.randint(1, 16), 100.0 / count)
            for i in range(count)
        )
        reserved = rng.choice((0, rng.randint(1, GIB)))
        spec = FleetSpec(generations, rng.randint(2, 40), reserved)
        events = []
        for i in range(rng.randint(20, 120)):
            t = rng.randint(0, 3000)
            events.append(start_event(f"vm{i}", t, rng.randint(1, 8), rng.randint(1, 6 * GIB)))
            if rng.random() < 0.8:
                events.append(stop_event(f"vm{i}", t + rng.randint(1, 1500)))
        return spec, events

    def test_shared_seeds_match_freshly_seeded_machines(self, monkeypatch):
        rng = random.Random(12)
        calls = []
        free_runs = BuddyAllocator.free_runs

        def counting_free_runs(buddy):
            calls.append(id(buddy))
            return free_runs(buddy)

        monkeypatch.setattr(BuddyAllocator, "free_runs", counting_free_runs)
        seen = dict.fromkeys(("untouched", "rejected"), 0)
        for _ in range(30):
            spec, events = self.shaped_fleet_and_trace(rng)
            shared = new_state(spec, SimVariant.BASELINE)
            fresh = new_state(spec, SimVariant.BASELINE)
            for m in fresh.machines:
                m.free_list = BuddyAllocator(
                    m.free_list.total_bytes, m.free_list.reserved_bytes, machine_id=m.machine_id
                )
            for event in event_order(events):
                step(shared, event)
                step(fresh, event)
            reports = []
            for state in (fresh, shared):
                calls.clear()
                reports.append(finish(state).core())
                held = [m.free_list for m in state.machines
                        if isinstance(m.free_list, BuddyAllocator)]
                # once per machine that holds a buddy allocator, never a seed
                assert sorted(calls) == sorted(map(id, held))
            assert reports[0] == reports[1]
            granted = {r.machine_id for r in shared.records}
            assert {m.machine_id for m in shared.machines
                    if isinstance(m.free_list, BuddyAllocator)} == granted
            seen["untouched"] += len(shared.machines) - len(granted)
            seen["rejected"] += shared.rejections
        assert all(seen.values()), seen


def whole_pages(demand):
    return -(-demand // PAGE_SIZE) * PAGE_SIZE


class TestPageGranularity:
    """Each demand is rounded up to whole pages once, at placement, so both
    memory models grant the same number of bytes from the whole pages above
    an odd reservation."""

    def test_odd_demands_above_an_odd_reservation(self):
        spec = FleetSpec((Generation("m", (1 << 20) + 123, 8, 100.0),), 1, 5000)
        for variant in VARIANTS:
            state = new_state(spec, variant)
            step(state, start_event("a", 0, 1, 4097))
            step(state, start_event("b", 0, 1, 4096))
            spans = {
                vm: [(s.base, s.limit) for s in live.allocation.segments]
                for vm, live in state.live.items()
            }
            if variant is not SimVariant.BASELINE:
                assert spans == {"a": [(8192, 16384)], "b": [(16384, 20480)]}
            for vm, demand in (("a", 4097), ("b", 4096)):
                assert state.live[vm].allocation.total_bytes == whole_pages(demand)
                assert all(b % PAGE_SIZE == 0 and l % PAGE_SIZE == 0 for b, l in spans[vm])
            assert finish(state).final_free == {0: ((8192, 1 << 20),)}

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2 * PAGE_SIZE, 64 * PAGE_SIZE),
        st.integers(0, 8 * PAGE_SIZE),
        st.sampled_from(VARIANTS),
        st.integers(0, 2**32 - 1),
    )
    def test_bitmap_oracle_agrees_on_odd_sizes(self, user, reserved, variant, seed):
        total = reserved + user
        spec = FleetSpec((Generation("m", total, 64, 100.0),), 1, reserved)
        state = new_state(spec, variant)
        oracle = BitmapOracle(total, reserved)
        rng = random.Random(seed)
        for i in range(40):
            if state.live and rng.random() < 0.4:
                vm = rng.choice(sorted(state.live))
                oracle.mark_released(state.live[vm].allocation.segments)
                step(state, stop_event(vm, i))
            else:
                vm, demand = f"vm{i}", rng.randint(1, user // 2)
                fits = whole_pages(demand) <= oracle.free_pages * PAGE_SIZE
                step(state, start_event(vm, i, 1, demand))
                assert (vm in state.live) is fits
                if fits:
                    allocation = state.live[vm].allocation
                    assert allocation.total_bytes == whole_pages(demand)
                    oracle.mark_allocated(allocation.segments)
            memory = state.machines[0].free_list
            assert memory.free_bytes == oracle.free_pages * PAGE_SIZE
            oracle.assert_matches_runs(memory.free_runs())


class TestStep:
    def test_start_then_stop_restores_initial_layout(self):
        state = new_state(one_machine_spec(), SimVariant.PLACEMENT_OPT1)
        before = [
            (s.base, s.limit) for s in state.machines[0].free_list.segments
        ]
        cores = state.machines[0].cores_free
        step(state, start_event("vm", 0, 1, 4 * GIB))
        step(state, stop_event("vm", 10))
        after = [(s.base, s.limit) for s in state.machines[0].free_list.segments]
        assert before == after
        assert state.machines[0].cores_free == cores

    def test_unknown_stop_is_an_anomaly(self):
        state = new_state(one_machine_spec(), SimVariant.PLACEMENT_OPT1)
        step(state, stop_event("ghost", 0))
        assert state.anomalies == 1
        assert state.rejections == 0

    def test_stop_of_rejected_vm_is_not_an_anomaly(self):
        state = new_state(one_machine_spec(ram_gib=4), SimVariant.PLACEMENT_OPT1)
        step(state, start_event("huge", 0, 1, 32 * GIB))
        assert state.rejections == 1
        step(state, stop_event("huge", 10))
        assert state.anomalies == 0
        step(state, stop_event("huge", 20))  # second stop has no excuse
        assert state.anomalies == 1

    def test_duplicate_start_is_an_anomaly(self):
        state = new_state(one_machine_spec(), SimVariant.PLACEMENT_OPT1)
        step(state, start_event("vm", 0, 1, GIB))
        step(state, start_event("vm", 1, 1, GIB))
        assert state.anomalies == 1
        report = finish(state)
        assert report.placed + report.rejections == report.start_count

    @pytest.mark.parametrize("variant", list(SimVariant), ids=lambda v: v.value)
    def test_restart_after_stop_is_placed_twice(self, variant):
        events = [
            start_event("vm", 0, 1, GIB),
            stop_event("vm", 10),
            start_event("vm", 20, 2, 2 * GIB),
        ]
        report = run(events, one_machine_spec(), variant)
        assert report.anomalies == 0
        assert report.start_count == 2
        assert [(r.vm_id, r.time) for r in report.records] == [("vm", 0), ("vm", 20)]
        assert report.implicit_stops == 1

    def test_conservation_at_every_step(self):
        state = new_state(one_machine_spec(ram_gib=8, cores=32), SimVariant.PLACEMENT_OPT2)
        events = [start_event(f"v{i}", i, 1, GIB) for i in range(6)]
        events += [stop_event(f"v{i}", 10 + i) for i in (1, 3)]
        events += [start_event("w", 20, 1, 2 * GIB)]
        live_bytes = 0
        total = 8 * GIB
        for ev in event_order(events):
            step(state, ev)
            machine = state.machines[0]
            live_bytes = sum(vm.allocation.total_bytes for vm in state.live.values())
            assert machine.free_list.free_bytes + live_bytes == total
            machine.free_list.check_invariants()

    def test_conservation_at_every_step_baseline(self):
        state = new_state(one_machine_spec(ram_gib=8, cores=32), SimVariant.BASELINE)
        events = [start_event(f"v{i}", i, 1, GIB + 4096 * i) for i in range(6)]
        events += [stop_event(f"v{i}", 10 + i) for i in (0, 2, 4)]
        events += [start_event("w", 20, 1, 3 * GIB)]
        for ev in event_order(events):
            step(state, ev)
            machine = state.machines[0]
            live_bytes = sum(vm.allocation.total_bytes for vm in state.live.values())
            assert machine.free_bytes + live_bytes == 8 * GIB

    def test_equal_time_stops_processed_before_starts(self):
        # 16 GiB machine is full; at t=5 a stop and a start arrive together:
        # the start can only succeed if the stop frees memory first.
        state = new_state(one_machine_spec(), SimVariant.PLACEMENT_OPT1)
        ordered = event_order(
            [
                start_event("a", 0, 1, 16 * GIB),
                start_event("b", 5, 1, 16 * GIB),
                stop_event("a", 5),
            ]
        )
        assert [(e.vm_id, e.kind.value) for e in ordered] == [
            ("a", "start"), ("a", "stop"), ("b", "start"),
        ]
        for ev in ordered:
            step(state, ev)
        assert state.rejections == 0
        assert len(state.live) == 1

    def test_equal_time_starts_keep_input_order(self):
        events = [
            start_event("z", 5, 1, GIB),
            start_event("a", 5, 1, GIB),
        ]
        assert [e.vm_id for e in event_order(events)] == ["z", "a"]

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
    def test_an_event_before_the_last_one_applied_raises_and_changes_nothing(self, variant):
        """``step`` takes events in ``event_order``: an earlier time, or a
        stop after a start of the same time, raises before it places,
        releases, logs or counts anything."""
        state = new_state(one_machine_spec(), variant, reselect_period=8.0)
        step(state, start_event("a", 5, 1, GIB))
        step(state, start_event("b", 10, 1, GIB))

        def snapshot():
            return (
                list(state.records), dict(state.live), list(state.index),
                [(m.cores_free, m.free_list.free_runs()) for m in state.machines],
                state.anomalies, state.rejections, list(state.log), state.option_switches[:],
            )

        before = snapshot()
        for event in (start_event("c", 7, 1, GIB), stop_event("a", 9), stop_event("a", 10),
                      stop_event("ghost", 10)):
            with pytest.raises(ValueError, match="sorts before the last event applied"):
                step(state, event)
            assert snapshot() == before
        step(state, start_event("c", 10, 1, GIB))
        assert [r.vm_id for r in state.records] == ["a", "b", "c"]

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
    def test_events_of_equal_time_and_kind_are_taken_in_any_order(self, variant):
        """``event_order`` leaves the input order of equal keys free, so
        ``step`` takes them in the order given."""
        state = new_state(one_machine_spec(), variant, reselect_period=8.0)
        for event in (
            stop_event("x", 5), stop_event("w", 5), start_event("b", 5, 1, GIB),
            start_event("a", 5, 1, GIB), stop_event("b", 9), stop_event("a", 9),
            start_event("b", 9, 1, GIB), start_event("a", 9, 1, GIB),
        ):
            step(state, event)
        assert [(r.vm_id, r.time) for r in state.records] == [
            ("b", 5), ("a", 5), ("b", 9), ("a", 9),
        ]
        assert state.anomalies == 2


class TestReversibility:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matched_pairs_restore_initial_free_layout(self, variant):
        rng = random.Random(9)
        trace = []
        for i in range(60):
            t = rng.randint(0, 500)
            trace.append(start_event(f"vm{i}", t, 1 + i % 4, rng.randint(1, 12) * GIB))
            trace.append(stop_event(f"vm{i}", t + rng.randint(1, 400)))
        spec = default_fleet_spec(4)
        totals = {m.machine_id: m.free_list.total_bytes for m in build_fleet(spec)}
        report = run(trace, spec, variant, n=3)
        assert report.implicit_stops == 0
        for machine_id, runs in report.final_free.items():
            assert runs == ((0, totals[machine_id]),)

    def test_unstopped_vms_get_implicit_stop_at_trace_end(self):
        trace = [
            start_event("a", 0, 1, GIB),
            start_event("b", 1, 1, GIB),
            stop_event("a", 50),
        ]
        report = run(trace, one_machine_spec(), SimVariant.PLACEMENT_OPT1)
        assert report.implicit_stops == 1
        assert report.final_free[0] == ((0, 16 * GIB),)


class TestDynamicVariant:
    def test_reselection_happens_every_period(self):
        trace = []
        for day in range(30):
            t = day * 86400
            trace.append(start_event(f"vm{day}", t, 1, GIB))
            trace.append(stop_event(f"vm{day}", t + 3600))
        report = run(
            trace, one_machine_spec(), SimVariant.DYNAMIC,
            reselect_period=7 * 86400.0,
        )
        assert len(report.option_switches) == 4  # days 7, 14, 21, 28
        assert [t for t, _ in report.option_switches] == [
            7 * 86400, 14 * 86400, 21 * 86400, 28 * 86400,
        ]

    def test_boundaries_stay_exact_up_to_the_latest_time(self):
        """A 3 s period's boundary after 2**53 - 2 is 2**53 + 1, which rounds
        to 2**53 as a float, so no event up to the latest time reaches it."""
        events = [start_event("a", 0, 1, GIB), start_event("b", MAX_TIME - 1, 1, GIB),
                  start_event("c", MAX_TIME, 1, GIB), stop_event("a", MAX_TIME)]
        report = run(events, one_machine_spec(), SimVariant.DYNAMIC, reselect_period=3.0)
        assert [t for t, _ in report.option_switches] == [3]
        assert report.placed == 3

    def test_no_reselection_over_empty_time(self):
        """A boundary with nothing logged since the last reselection records
        nothing; one event after several boundaries reselects once, at the
        first of them, and the schedule keeps its phase from t = 0."""
        week = 7 * 86400
        epoch = [start_event("a", 1_600_000_000, 1, GIB), stop_event("a", 1_600_000_100)]
        report = run(epoch, one_machine_spec(), SimVariant.DYNAMIC)
        assert report.option_switches == ()
        late = [start_event("a", 0, 1, GIB), stop_event("a", 5 * week + 10),
                start_event("b", 6 * week, 1, GIB)]
        state = new_state(one_machine_spec(), SimVariant.DYNAMIC)
        for event in late:
            step(state, event)
        assert state.option_switches == [(week, "opt1"), (6 * week, "opt1")]
        assert state.next_reselect == 7 * week

    def test_non_dynamic_variants_never_switch(self):
        trace = [start_event("a", 0, 1, GIB), stop_event("a", 10**7)]
        for variant in (SimVariant.BASELINE, SimVariant.PLACEMENT_OPT1,
                        SimVariant.PLACEMENT_OPT2):
            report = run(trace, one_machine_spec(), variant)
            assert report.option_switches == ()


def core_digest(report):
    core = json.dumps(report.core(), sort_keys=True).encode()
    return hashlib.sha256(core).hexdigest()[:16]


GOLDEN_TRACES = {
    # churn on 20 machines of the default fleet: every segment grant is k = 1
    "churn": (
        lambda: gen_synthetic(
            200, DEFAULT_FLAVORS, Distribution.exponential(120),
            Distribution.exponential(6000), 7,
        ),
        default_fleet_spec(20),
        7 * 86400.0,
    ),
    # memory-bound: 2 machines fill up, grants compose and fall back to
    # paging, and dynamic reselects every 6 h (opt2, then back to opt1 once)
    "memory": (
        lambda: gen_synthetic(
            400, DEFAULT_FLAVORS, Distribution.exponential(300),
            Distribution.exponential(20000), 5,
        ),
        FleetSpec((Generation("m", 256 * GIB, 256, 100.0),), 2),
        6 * 3600.0,
    ),
    # 200 machines of the default fleet: every VM lands on one of the 40
    # equal 512 GiB machines, so the lowest-id tie-break among machines with
    # equal free bytes decides most placements; dynamic reselects every 6 h
    "wide": (
        lambda: gen_synthetic(
            400, DEFAULT_FLAVORS, Distribution.exponential(120),
            Distribution.exponential(20000), 13,
        ),
        default_fleet_spec(200),
        6 * 3600.0,
    ),
}

# sha256 of json.dumps(report.core(), sort_keys=True), first 16 hex digits
GOLDEN_DIGESTS = {
    ("churn", "baseline"): "da5f517ca00b68a3",
    ("churn", "opt1"): "10fb141acbeee8de",
    ("churn", "opt2"): "614d5b72efa6728a",
    ("churn", "dynamic"): "8bbc0c5781572c61",
    ("memory", "baseline"): "1d784ca6404dca8f",
    ("memory", "opt1"): "a1c597a51eb23975",
    ("memory", "opt2"): "560ea1a37c906400",
    ("memory", "dynamic"): "8cadd5979335f63b",
    ("wide", "baseline"): "091793ce185cedc5",
    ("wide", "opt1"): "509a3a0b62a7f35d",
    ("wide", "opt2"): "d89be6eba8a1c20a",
    ("wide", "dynamic"): "2c655cee10c846ba",
}


class TestGoldenOutput:
    """Pins every variant's deterministic report on three seeded traces, so a
    refactor of the engine, the allocators or the reselection cannot change
    an answer unnoticed."""

    @pytest.mark.parametrize("workload", sorted(GOLDEN_TRACES))
    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
    def test_core_report_matches_golden_digest(self, workload, variant):
        make_events, spec, period = GOLDEN_TRACES[workload]
        report = run(make_events(), spec, variant, n=3, seed=1, reselect_period=period)
        assert core_digest(report) == GOLDEN_DIGESTS[workload, variant.value]

    def test_memory_trace_exercises_composition_and_reselection(self):
        make_events, spec, period = GOLDEN_TRACES["memory"]
        events = make_events()
        for variant in (SimVariant.PLACEMENT_OPT1, SimVariant.PLACEMENT_OPT2):
            report = run(events, spec, variant, n=3)
            assert any(r.k > 3 for r in report.records)
            assert report.rejections > 0
        dynamic = run(events, spec, SimVariant.DYNAMIC, n=3, reselect_period=period)
        assert {policy for _, policy in dynamic.option_switches} == {"opt1", "opt2"}


class TestWholeReplayInvariants:
    """Every free list stays ordered, coalesced and in step with its stored
    sizes and counters, and the placement index with the machines, after
    every event of a replay that composes grants, rejects VMs and switches
    policy."""

    @pytest.mark.parametrize(
        "variant",
        [SimVariant.PLACEMENT_OPT1, SimVariant.PLACEMENT_OPT2, SimVariant.DYNAMIC],
        ids=lambda v: v.value,
    )
    def test_invariants_hold_after_every_step(self, variant):
        make_events, spec, period = GOLDEN_TRACES["memory"]
        state = new_state(spec, variant, 3, period)
        policies = [state.config.current_policy]
        for event in event_order(make_events()):
            step(state, event)
            for m in state.machines:
                m.free_list.check_invariants()
            assert state.index == sorted((-m.free_bytes, m.machine_id) for m in state.machines)
            if state.config.current_policy is not policies[-1]:
                policies.append(state.config.current_policy)
        assert any(r.k > 1 for r in state.records)
        assert state.rejections > 0
        if variant is SimVariant.DYNAMIC:  # switched to opt2 and back
            assert len(policies) >= 3


class TestWholeReplayReference:
    """Each variant's ``core()`` equals that of ``oracle.replay``, the
    whole-replay reference that shares no fast path with the engine, on
    random episodic traces: 1000 cells, 320 traces for each segment variant
    and one in eight of them for the baseline. The counts show what the
    traces covered; each that the variant can reach must be non-zero."""

    REACHED = {
        SimVariant.BASELINE: (),
        SimVariant.PLACEMENT_OPT1: ("k >= 4", "fallback"),
        SimVariant.PLACEMENT_OPT2: ("k >= 4", "fallback"),
        SimVariant.DYNAMIC: ("k >= 4", "fallback", "empty period", "records", "replay", "none",
                             "opt2 and back"),
    }

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
    def test_variant_matches_the_reference(self, variant):
        rng = random.Random(58)
        seen = dict.fromkeys(("rejection", "duplicate start", "unknown stop", "restart",
                              "reserved bytes", *self.REACHED[SimVariant.DYNAMIC]), 0)
        for trace in range(320):
            spec, events, n, period = episodic_fleet_and_trace(rng)
            # the baseline's buddy allocators are slow: one trace in eight
            if variant is SimVariant.BASELINE and trace % 8:
                continue
            starts = [(e.vm_id, e.time) for e in events if e.kind is EventKind.START]
            busy = {e.time // period for e in events}
            report = run(events, spec, variant, n, reselect_period=period)
            assert report.core() == reference_replay(events, spec, variant, n, period), trace
            seen["k >= 4"] += any(r.k >= 4 for r in report.records)
            seen["rejection"] += report.rejections > 0
            seen["fallback"] += any(r.mode == "fallback" for r in report.records)
            seen["duplicate start"] += len(set(starts)) < len(starts)
            seen["unknown stop"] += any(e.vm_id.startswith("ghost") for e in events)
            seen["restart"] += len({r.vm_id for r in report.records}) < report.placed
            seen["reserved bytes"] += spec.reserved_bytes > 0
            seen["empty period"] += len(busy) <= max(busy)
            # the origin "records" marks a period begun drained, the others
            # one begun live
            for record in report.reselections:
                seen[record.origin] += 1
            policies = [policy for _, policy in report.option_switches]
            seen["opt2 and back"] += "opt2" in policies and "opt1" in policies[
                policies.index("opt2"):]
        required = ("rejection", "duplicate start", "unknown stop", "restart", "reserved bytes",
                    *self.REACHED[variant])
        assert all(seen[key] for key in required), seen


def random_fleet_and_trace(rng):
    """2-12 machines in two generations of identical machines (ties on free
    bytes), some with fewer cores than a VM asks for, and more memory
    demand than the fleet holds; demands are arbitrary byte counts, or whole
    GiB so that a demand often equals a machine's free bytes."""
    small = Generation("small", rng.randint(4, 12) * GIB + rng.randint(0, 9) * 4096,
                       rng.randint(1, 4), 50.0)
    big = Generation("big", rng.randint(12, 24) * GIB, rng.randint(2, 8), 50.0)
    spec = FleetSpec((small, big), rng.randint(2, 12))
    events = []
    for i in range(rng.randint(20, 80)):
        t = rng.randint(0, 2000)
        demand = rng.choice((rng.randint(1, 6 * GIB), rng.randint(1, 6) * GIB))
        events.append(start_event(f"vm{i}", t, rng.randint(1, 4), demand))
        if rng.random() < 0.8:
            events.append(stop_event(f"vm{i}", t + rng.randint(1, 1500)))
    return spec, events


def index_key(variant, m):
    """A machine's placement-index entry: keyed by free cores on the
    baseline, by free bytes on the segment variants."""
    if variant is SimVariant.BASELINE:
        return (-m.cores_free, m.machine_id)
    return (-m.free_bytes, m.machine_id)


def oracle_walk(state, event):
    """``filter_resources`` for a start, in the variant's index order."""
    kept = filter_resources(state.machines, event.cores, event.memory_bytes)
    return sorted(kept, key=lambda m: index_key(state.variant, m))


# a threshold no free segment reaches, so the walk passes every fitting machine
NO_SEGMENT = 1 << 64


def engine_walk(state, event, segment):
    """The fitting machines ``fitting_machines`` walks for a start, the fit
    it returns (if any) last."""
    baseline = state.variant is SimVariant.BASELINE
    stop = event.cores if baseline else event.memory_bytes
    machine, walked = fitting_machines(
        state.machines, state.index, event.cores, event.memory_bytes, stop, segment
    )
    return walked if machine is None else [*walked, machine]


def oracle_prefix(kept, segment):
    """``kept`` up to and including the first machine whose largest free
    segment covers ``segment`` (any machine for 0), all of it if none does."""
    for i, m in enumerate(kept):
        if not segment or m.free_list.max_segment >= segment:
            return kept[: i + 1]
    return kept


def assert_walks_match(state, event, kept):
    """The walk agrees with ``kept``, the oracle's filter in index order,
    under each threshold the variant can use: 0 on the baseline; on the
    segment variants the demand, as the engine passes it, and one that no
    segment reaches, which walks every fitting machine."""
    baseline = state.variant is SimVariant.BASELINE
    for segment in (0,) if baseline else (event.memory_bytes, NO_SEGMENT):
        walked = [m.machine_id for m in engine_walk(state, event, segment)]
        assert walked == [m.machine_id for m in oracle_prefix(kept, segment)]


class TestPlacementIndex:
    """The index walk yields exactly the machines the fleet-wide resource
    filter keeps, and the index tracks the free amount of the resource that
    keys it: free cores on the baseline, free bytes elsewhere. Where each
    variant then places a VM is ``oracle.replay``'s to check."""

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
    def test_index_walk_matches_the_filter(self, variant):
        rng = random.Random(41)
        seen = dict.fromkeys(("kept", "none kept", "other_skipped", "tied", "exact"), 0)
        for _ in range(40):
            spec, events = random_fleet_and_trace(rng)
            state = new_state(spec, variant, n=2, reselect_period=600.0)
            for event in event_order(events):
                if event.kind is EventKind.START and event.vm_id not in state.live:
                    self.check_walk(state, event, seen)
                step(state, event)
                assert state.index == sorted(index_key(variant, m) for m in state.machines)
        assert all(seen.values()), seen

    @staticmethod
    def check_walk(state, event, seen):
        """The index walk for a start against ``filter_resources``."""
        kept = oracle_walk(state, event)
        assert_walks_match(state, event, kept)
        baseline = state.variant is SimVariant.BASELINE
        seen["kept" if kept else "none kept"] += 1
        # a machine the walk passes over on the resource not keying the index
        seen["other_skipped"] += any(
            m.cores_free >= event.cores and m.free_bytes < event.memory_bytes
            if baseline else
            m.free_bytes >= event.memory_bytes and m.cores_free < event.cores
            for m in state.machines)
        seen["tied"] += len({index_key(state.variant, m)[0] for m in kept}) < len(kept)
        seen["exact"] += any(m.free_bytes == event.memory_bytes for m in kept)


class CountingIndex(list):
    """A placement index that counts the entries a walk reads."""

    reads = 0

    def __iter__(self):
        for entry in super().__iter__():
            self.reads += 1
            yield entry


class TestBaselineWalkLength:
    """The baseline's pick reads the index only up to the first machine that
    fits, so it does not grow with the fleet."""

    @staticmethod
    def start_on_counted_index(state, demand, cores=2):
        state.index = CountingIndex(state.index)
        step(state, start_event("vm", 0, cores, demand))
        return state.index.reads

    def test_one_entry_when_every_machine_fits(self):
        state = new_state(default_fleet_spec(1000), SimVariant.BASELINE)
        first = state.index[0][1]
        assert self.start_on_counted_index(state, 4 * GIB) == 1
        assert state.records[-1].machine_id == first

    def test_one_entry_when_no_machine_has_the_cores(self):
        state = new_state(default_fleet_spec(1000), SimVariant.BASELINE)
        most = max(m.cores_free for m in state.machines)
        assert self.start_on_counted_index(state, GIB, cores=most + 1) == 1
        assert state.rejections == 1

    @pytest.mark.parametrize("j", [1, 5, 50])
    def test_j_plus_one_entries_past_j_machines_short_of_bytes(self, j):
        state = new_state(default_fleet_spec(1000), SimVariant.BASELINE)
        ahead = [machine_id for _, machine_id in state.index[:j + 1]]
        # free bytes do not key the baseline's index: no entry moves
        for machine_id in ahead[:j]:
            machine = state.machines[machine_id]
            shape = (machine.free_list.total_bytes, machine.free_list.reserved_bytes)
            machine.free_list = memory = BuddyAllocator(*shape, machine_id=machine_id)
            memory.allocate("hog", memory.free_bytes - GIB)
        assert self.start_on_counted_index(state, 2 * GIB) == j + 1
        assert state.records[-1].machine_id == ahead[j]


def churning_fleet_and_trace(rng):
    """1-3 small machines and short-lived VMs of 1-8 half-GiB, so free memory
    shatters and many grants compose."""
    spec = FleetSpec((Generation("m", rng.randint(6, 10) * GIB, 64, 100.0),),
                     rng.randint(1, 3))
    events = []
    for i in range(rng.randint(20, 80)):
        t = rng.randint(0, 2000)
        events.append(start_event(f"vm{i}", t, 1, rng.randint(1, 8) * GIB // 2))
        events.append(stop_event(f"vm{i}", t + rng.randint(1, 600)))
    return spec, events


def bursty_fleet_and_trace(rng):
    """Bursts of 6-16 VMs of 1-4 half GiB on 1-2 machines of 4-8 GiB, one
    burst in each 1000 s from its start: most bursts have stopped when the
    next 1000 s begin, so a dynamic replay with that period begins most
    periods drained, and some run on past them. Stops leave holes that
    later VMs of the burst compose."""
    spec = FleetSpec((Generation("m", rng.randint(4, 8) * GIB, 64, 100.0),), rng.randint(1, 2))
    events = []
    for burst in range(rng.randint(2, 6)):
        for i in range(rng.randint(6, 16)):
            t = burst * 1000 + rng.randint(0, 600)
            events.append(start_event(f"b{burst}vm{i}", t, 1, rng.randint(1, 4) * GIB // 2))
            events.append(stop_event(f"b{burst}vm{i}", t + rng.randint(1, 500)))
    return spec, events


def reselect(log, spec, config, scorer=None):
    """``reselect_option`` on the log, scored by ``scorer`` when one is
    handed, and the record of how it scored."""
    reselections = []
    chosen = engine.reselect_option(log, spec, config, scorer, reselections)
    (record,) = reselections
    assert chosen.value == record.chosen
    return chosen, record


def replays(record):
    """The replays a reselection ran: the current policy's on a fresh fleet,
    and the challenger's from its fork."""
    return (record.origin == "replay") + (record.fork is not None)


def scored_periods(report):
    """Each reselection's record with the period [lo, hi) it scored: from
    the previous reselection's boundary, or 0, to its own."""
    bounds = [0, *(t for t, _ in report.option_switches)]
    return zip(report.reselections, bounds[:-1], bounds[1:], strict=True)


class TestReselectionSkip:
    """``reselect_option`` skips the other policy's replay when the current
    policy composed no grant; the dynamic replay must still equal the
    whole-replay reference, which makes two full replays, one per policy, at
    each reselection."""

    def test_dynamic_replay_matches_two_full_replays(self):
        rng = random.Random(44)
        seen = dict.fromkeys(("skipped", "full", "switched"), 0)
        for _ in range(40):
            spec, events = churning_fleet_and_trace(rng)
            got = run(events, spec, SimVariant.DYNAMIC, n=2, reselect_period=1000.0)
            for record in got.reselections:
                seen["skipped"] += replays(record) < 2
                seen["full"] += replays(record) == 2
            seen["switched"] += len({p for _, p in got.option_switches}) > 1
            assert got.core() == reference_replay(events, spec, SimVariant.DYNAMIC, 2, 1000.0)
        assert all(seen.values()), seen


SMALLEST, LARGEST = AllocationPolicy.SMALLEST_FIRST, AllocationPolicy.LARGEST_FIRST


def composing_period(t, tag):
    """Four VMs on one 4 GiB machine from time t: stopping the second leaves
    two 1 GiB holes, so the 2 GiB VM composes k = 2 under either policy."""
    return [
        start_event(f"{tag}a", t, 1, GIB), start_event(f"{tag}b", t + 1, 1, GIB),
        start_event(f"{tag}c", t + 2, 1, GIB), stop_event(f"{tag}b", t + 3),
        start_event(f"{tag}d", t + 4, 1, 2 * GIB),
    ]


def stops(t, tag):
    return [stop_event(f"{tag}{v}", t) for v in "acd"]


class TestReselectionFromRecords:
    """The current policy's score comes from the dynamic replay's own records
    when its period began on a drained fleet, and from no replay at all when
    the log holds no start. Each reselection's record shows which path it
    took."""

    SPEC = one_machine_spec(ram_gib=4)

    def replayed_policies(self, events, policy=AllocationPolicy.SMALLEST_FIRST):
        """Feed events to ``step`` in the given order from a dynamic state
        under ``policy``. Returns, per reselection, the policies its replays
        ran under: the current policy's on a fresh fleet, then the
        challenger's."""
        state = new_state(self.SPEC, SimVariant.DYNAMIC, n=2, reselect_period=1000.0)
        state.config.current_policy = policy
        for event in events:
            step(state, event)
        got = finish(state)
        assert got.option_switches
        policies = []
        for record in got.reselections:
            (other,) = set(AllocationPolicy) - {policy}
            policies.append([policy] * (record.origin == "replay")
                            + [other] * (record.fork is not None))
            policy = AllocationPolicy(record.chosen)
        return policies

    @pytest.mark.parametrize("policy, other", [(SMALLEST, LARGEST), (LARGEST, SMALLEST)])
    def test_first_period_replays_only_the_other_policy(self, policy, other):
        events = composing_period(0, "p") + stops(1000, "p")
        assert self.replayed_policies(events, policy) == [[other]]

    def test_period_after_the_fleet_drained_is_scored_from_records(self):
        """Period 2 begins with VMs still live, so its current policy is
        replayed; they all stop inside it, so period 3 begins drained."""
        events = (composing_period(0, "p") + stops(1000, "p") + composing_period(1500, "q")
                  + stops(1600, "q") + composing_period(2000, "r") + stops(3000, "r"))
        assert self.replayed_policies(events) == [[LARGEST], [SMALLEST, LARGEST], [LARGEST]]

    def test_stop_only_log_runs_no_replay(self):
        """Period 2 begins with a VM live and logs only its stop."""
        events = [start_event("a", 0, 1, GIB), stop_event("a", 1000),
                  start_event("b", 2000, 1, GIB)]
        assert self.replayed_policies(events) == [[], []]

    @pytest.mark.parametrize("late_stop_time", [5, 4], ids=["equal-time", "earlier"])
    def test_an_event_out_of_event_order_is_refused_before_it_is_logged(self, late_stop_time):
        """A stop that event order puts before a 2 GiB start already stepped
        raises, so the log that the drained records score stays in event
        order."""
        state = new_state(self.SPEC, SimVariant.DYNAMIC, n=2, reselect_period=1000.0)
        events = [
            start_event("a", 0, 1, GIB), start_event("b", 1, 1, GIB),
            start_event("c", 2, 1, GIB), stop_event("b", 3), start_event("x", 5, 1, 2 * GIB),
        ]
        for event in events:
            step(state, event)
        with pytest.raises(ValueError, match="out of event order"):
            step(state, stop_event("a", late_stop_time))
        assert state.log == events
        assert event_order(state.log) == state.log


def scoring_fleet_and_log(rng):
    """A reselection's log on 1-3 machines of 4-8 GiB plus an odd byte count,
    with 2-6 cores, so that some starts find no machine with the cores, or
    with 64. VMs of 1-3 cores ask for 1-4 quarter GiB or 1-4 GiB, plus an
    odd byte count, so the small ones leave holes that the large ones
    compose; about one VM in seven starts a second time while it runs. The
    log is a window of the replay order, so some of its stops name VMs
    started before it; one log in ten keeps only its stops."""
    spec = FleetSpec((Generation("m", rng.randint(4, 8) * GIB + rng.randint(1, 3 * PAGE_SIZE),
                                 rng.choice((rng.randint(2, 6), 64)), 100.0),),
                     rng.randint(1, 3))
    events = []
    for i in range(rng.randint(10, 50)):
        t = rng.randint(0, 2000)
        demand = rng.choice((rng.randint(1, 4) * GIB // 4, rng.randint(2, 8) * GIB // 2))
        events.append(start_event(f"vm{i}", t, rng.randint(1, 3),
                                  demand + rng.randint(0, 3 * PAGE_SIZE)))
        if rng.random() < 0.15:
            events.append(start_event(f"vm{i}", t + 1, 1, GIB))
        events.append(stop_event(f"vm{i}", t + rng.randint(2, 600)))
    ordered = event_order(events)
    lo = rng.randint(0, len(ordered) // 3)
    log = ordered[lo:rng.randint(lo + 1, len(ordered))]
    stops = [e for e in log if e.kind is EventKind.STOP]
    if stops and rng.random() < 0.1:
        log = stops
    return spec, log


def replay_outcomes(events, spec, policy, n):
    """Per event of a fresh replay under ``policy``: the k of a start's
    grant, 0 when the start placed no VM, None for a stop; and the state."""
    state = new_state(spec, SimVariant(policy.value), n)
    outcomes = []
    for event in events:
        record = step(state, event)
        if event.kind is EventKind.STOP:
            outcomes.append(None)
        else:
            outcomes.append(record.k if record is not None else 0)
    return outcomes, state


def logged_period(log, spec, policy, n):
    """What the dynamic replay hands the reselection of a period that began
    on a drained fleet and logged ``log`` under ``policy``: its own state,
    whose records it made stepping the log in its own order, and whose
    challenger is the fork its ``_start_vm`` took just before the period's
    first composed grant, with that start's event and that grant's record
    index (None without one)."""
    state = new_state(spec, SimVariant.DYNAMIC, n, reselect_period=10.0**9)
    state.config.current_policy = policy
    for event in log:
        step(state, event)
    return state


def hosts(log, spec):
    """H: the machines of a fresh ``spec`` fleet with as many free cores as
    the log's most cores of a start and a free segment covering its most
    memory in whole pages, 0 for a log of no start."""
    starts = [e for e in log if e.kind is EventKind.START]
    if not starts:
        return 0
    cores = max(e.cores for e in starts)
    memory = -(-max(e.memory_bytes for e in starts) // PAGE_SIZE) * PAGE_SIZE
    return sum(m.cores_free >= cores and m.free_list.max_segment >= memory
               for m in build_fleet(spec))


class TestChallengerScoring:
    """``reselect_option`` replays the challenger, the policy that is not
    current, from the fork that the current policy's replay took, its fresh
    replay's or with its records the dynamic replay's, and stops it once the
    outcome is decided. It must choose what full replays under both policies
    choose, and step exactly the events that they show are needed to
    decide."""

    @staticmethod
    def score(outcomes, n):
        """(VMs at k <= n, -segments) of a replay's per-event outcomes."""
        ks = [k for k in outcomes if k is not None]
        return sum(0 < k <= n for k in ks), -sum(ks)

    @staticmethod
    def decided(mine, theirs, fork, n):
        """The number of events the challenger steps from index ``fork`` and
        why it stops, from the per-event outcomes of full replays under the
        current policy (``mine``) and the challenger (``theirs``)."""
        best = sum(0 < k <= n for k in mine if k is not None)
        segs = sum(k for k in mine if k is not None)
        dsn = sum(0 < k <= n for k in theirs[:fork] if k is not None)
        total = sum(k for k in theirs[:fork] if k is not None)
        left = sum(k is not None for k in theirs[fork:])
        for i in range(fork, len(theirs)):
            k = theirs[i]
            if k is None:
                continue
            left -= 1
            dsn += 0 < k <= n
            total += k
            if dsn + left < best:
                return i + 1 - fork, "behind"
            if dsn + left == best and total + left >= segs:
                return i + 1 - fork, "no fewer segments"
            if dsn > best:
                return i + 1 - fork, "ahead"
            if not left:
                return i + 1 - fork, "fewer segments"
        raise AssertionError("no start from the fork on")

    def test_matches_two_full_replays_and_stops_once_decided(self):
        rng = random.Random(47)
        exits = dict.fromkeys(("behind", "no fewer segments", "ahead", "fewer segments"), 0)
        seen = dict.fromkeys(("from records", "stops only", "rejected",
                              "anomaly", "forked", "forked by step"), 0)
        for _ in range(300):
            spec, log = scoring_fleet_and_log(rng)
            n = rng.randint(1, 3)
            for current in AllocationPolicy:
                (other,) = set(AllocationPolicy) - {current}
                config = SchedulerConfig(n=n, current_policy=current)
                mine, state = replay_outcomes(log, spec, current, config.n)
                theirs, _ = replay_outcomes(log, spec, other, config.n)
                scorer = None
                if rng.random() < 0.5:
                    # the dynamic replay that logged from a drained fleet,
                    # with the fork it took
                    scorer = logged_period(log, spec, current, config.n)
                got_log = list(log)
                got, record = reselect(got_log, spec, config, scorer)
                wins = self.score(theirs, n) > self.score(mine, n)
                assert got is (other if wins else current)
                assert got_log == []

                from_records = scorer is not None
                # the current policy is replayed exactly when the log holds
                # more starts than machines that could host its largest one
                replayed = not from_records and sum(k is not None for k in mine) > hosts(log, spec)
                assert record.origin == ("records" if from_records else
                                         "replay" if replayed else "none")
                assert record.replay_steps == (len(log) if replayed else 0)
                composed = [i for i, k in enumerate(mine) if k is not None and k > 1]
                if composed:
                    # both forks are taken just before the first composed grant
                    count, why = self.decided(mine, theirs, composed[0], config.n)
                    assert record.fork == composed[0]
                    assert record.challenger_steps == count
                    ks = [k for k in mine[composed[0]:] if k is not None]
                    assert record.score == (sum(0 < k <= n for k in ks), sum(ks))
                    exits[why] += 1
                    seen["forked"] += not from_records
                    seen["forked by step"] += from_records
                else:
                    assert record.fork is None and record.challenger_steps == 0
                seen["from records"] += from_records
                seen["stops only"] += all(k is None for k in mine)
                seen["rejected"] += state.rejections > 0
                seen["anomaly"] += state.anomalies > 0
        assert all(exits.values()), exits
        assert all(seen.values()), seen

    def test_dynamic_replay_forks_in_periods_begun_with_vms_live(self):
        """Reselection forks the current policy's replay in the periods whose
        current policy is replayed, because VMs were live when they began;
        in a period begun drained the dynamic replay hands it a fork exactly
        when its records composed a grant, and no fresh replay runs. The
        report still equals the whole-replay reference's."""
        rng = random.Random(48)
        forked_by_a_fresh_replay = 0
        handed = dict.fromkeys((True, False), 0)
        traces = [(*churning_fleet_and_trace(rng), 300.0) for _ in range(20)]
        traces += [(*bursty_fleet_and_trace(rng), 1000.0) for _ in range(20)]
        for spec, events, period in traces:
            got = run(events, spec, SimVariant.DYNAMIC, n=2, reselect_period=period)
            assert got.core() == reference_replay(events, spec, SimVariant.DYNAMIC, 2, period)
            for record, lo, hi in scored_periods(got):
                forked_by_a_fresh_replay += record.origin == "replay" and record.fork is not None
                if record.origin == "records":
                    period_records = [r for r in got.records if lo <= r.time < hi]
                    assert (record.fork is not None) is any(r.k > 1 for r in period_records)
                    assert record.replay_steps == 0
                    handed[record.fork is not None] += 1
        assert forked_by_a_fresh_replay
        assert all(handed.values()), handed

    def test_losing_challenger_stops_at_the_start_that_decides(self):
        """On one 8 GiB machine the stops leave holes of 1, 1 and 2 GiB. A
        3 GiB start takes two segments largest-first and three smallest-first,
        one more than n = 2, so once the largest-first replay has placed every
        VM in at most two segments, the smallest-first challenger is behind at
        that start and steps no further."""
        sizes = {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1, "f": 2, "g": 1}
        log = [start_event(v, t, 1, size * GIB) for t, (v, size) in enumerate(sizes.items())]
        log += [stop_event(v, 10) for v in "bdf"]
        log += [start_event("x", 11, 1, 3 * GIB)]
        log += [start_event(f"s{i}", 12 + i, 1, GIB // 8) for i in range(8)]
        log += [stop_event(f"s{i}", 30) for i in range(8)]
        config = SchedulerConfig(n=2, current_policy=AllocationPolicy.LARGEST_FIRST)
        spec = one_machine_spec(ram_gib=8, cores=64)
        got, record = reselect(list(log), spec, config)
        assert got is AllocationPolicy.LARGEST_FIRST
        fork = log.index(start_event("x", 11, 1, 3 * GIB))
        assert record.origin == "replay" and record.replay_steps == len(log)
        assert record.fork == fork
        assert record.challenger_steps == 1 < len(log) - fork
        # x in two segments and the eight small VMs in one each, against x
        # in three, after which eight starts cannot reach nine VMs at k <= 2
        assert record.score == (9, 10) and record.challenger_score == (0, 3)


def tiered_fleet_and_trace(rng, vms, span):
    """VMs on a fleet of three generations, of which only one can host every
    start: 1-2 host machines of 3-5 GiB plus an odd byte count with 16
    cores, 0-6 narrow ones of 64 GiB with 1 core and 0-6 short ones of 1 GiB
    with 64 cores. ``vms`` VMs of 1-3 cores start within ``span`` s and ask
    for 1-4 half GiB plus an odd byte count; they live 1-60 s, one in five
    100-500 s, so the stops leave holes that later starts on a host compose,
    and periods begin with VMs live."""
    counts = (rng.randint(1, 2), rng.randint(0, 6), rng.randint(0, 6))
    shapes = ((rng.randint(3, 5) * GIB + rng.randint(1, 3 * PAGE_SIZE), 16), (64 * GIB, 1),
              (GIB, 64))
    machines = sum(counts)
    spec = FleetSpec(tuple(Generation(name, ram, cores, 100.0 * count / machines)
                           for name, (ram, cores), count
                           in zip(("host", "narrow", "short"), shapes, counts)), machines)
    events = []
    for i in range(vms):
        t = rng.randint(0, span)
        demand = rng.randint(1, 4) * GIB // 2 + rng.randint(0, 3 * PAGE_SIZE)
        events.append(start_event(f"vm{i}", t, rng.randint(1, 3), demand))
        life = rng.randint(100, 500) if rng.random() < 0.2 else rng.randint(1, 60)
        events.append(stop_event(f"vm{i}", t + life))
    return spec, events


class TestReplayFreeScore:
    """A reselection of a period begun with VMs live replays the current
    policy only when the log holds more starts than H, the machines that
    could each host its largest start on an empty machine: with no more,
    every grant of that replay takes one segment, also on fleets where some
    generations are too small in cores or memory for some starts."""

    @staticmethod
    def log_counts(log, spec):
        """The log's starts; H; and the H that three wrong counts would give:
        every machine, the machines fitting the smallest start, and those with
        the cores of the largest whatever their memory."""
        starts = [e for e in log if e.kind is EventKind.START]
        fleet = build_fleet(spec)
        smallest = min(e.cores for e in starts), min(e.memory_bytes for e in starts)
        cores = max(e.cores for e in starts)
        return (len(starts), hosts(log, spec), len(fleet),
                sum(m.cores_free >= smallest[0] and m.free_bytes >= smallest[1] for m in fleet),
                sum(m.cores_free >= cores for m in fleet))

    def test_a_period_scored_without_a_replay_composes_no_grant(self):
        """Where the current policy is not replayed, its full replay on a
        fresh fleet grants every start one segment, so no challenger can
        differ. The logs include ones that compose although they hold no
        more starts than each wrong count of H, so a skip on any of those
        counts fails here."""
        rng = random.Random(53)
        seen = dict.fromkeys(("scored without a replay", "replayed and composed",
                              "composes within every machine", "composes within the smallest's",
                              "composes within the cores-only"), 0)
        for _ in range(1000):
            spec, events = tiered_fleet_and_trace(rng, rng.randint(4, 20), 200)
            ordered = event_order(events)
            lo = rng.randint(0, len(ordered) // 3)
            log = ordered[lo:rng.randint(lo + 1, min(len(ordered), lo + 40))]
            if not any(e.kind is EventKind.START for e in log):
                continue
            starts, h, machines, smallest, cores_only = self.log_counts(log, spec)
            for current in AllocationPolicy:
                config = SchedulerConfig(n=rng.randint(1, 3), current_policy=current)
                mine, _ = replay_outcomes(log, spec, current, config.n)
                composed = any(k is not None and k > 1 for k in mine)
                _, record = reselect(list(log), spec, config)
                replayed = record.replay_steps > 0
                assert replayed is (starts > h)
                assert record.origin == ("replay" if replayed else "none")
                if not replayed:
                    assert not composed
                    seen["scored without a replay"] += 1
                seen["replayed and composed"] += replayed and composed
                seen["composes within every machine"] += composed and starts <= machines
                seen["composes within the smallest's"] += composed and starts <= smallest
                seen["composes within the cores-only"] += composed and starts <= cores_only
        assert all(seen.values()), seen


    def test_dynamic_replay_matches_two_full_replays(self):
        """Whole dynamic replays with 100 s periods, many begun with VMs
        live, equal the whole-replay reference, with its two full replays
        per reselection."""
        rng = random.Random(54)
        seen = dict.fromkeys(("scored without a replay", "replayed and composed"), 0)
        for _ in range(60):
            spec, events = tiered_fleet_and_trace(rng, rng.randint(20, 80), 1500)
            n = rng.randint(1, 2)
            got = run(events, spec, SimVariant.DYNAMIC, n, reselect_period=100.0)
            assert got.core() == reference_replay(events, spec, SimVariant.DYNAMIC, n, 100.0)
            for record, lo, hi in scored_periods(got):
                started = any(e.kind is EventKind.START and lo <= e.time < hi for e in events)
                seen["scored without a replay"] += record.origin == "none" and started
                seen["replayed and composed"] += replays(record) == 2
        assert all(seen.values()), seen

class TestReselectionRecord:
    """Each reselection's record agrees with the real calls behind it, which
    ``count_calls`` counts by wrapping ``engine.step``, ``engine.new_state``
    and ``engine._fork``: a fresh fleet built exactly for the origin
    ``replay``, the events that untimed replays step under the current
    policy and under the challenger, and the log index at which a fresh
    replay, or the dynamic replay in a period scored from its records, took
    the fork. The other reselection tests read the record alone."""

    @staticmethod
    def count_calls(monkeypatch):
        """Per reselection, the fresh fleets built, the events that untimed
        replays stepped by policy and the forks taken, each at the log index
        of the start that the forked state was stepping: ``len(log) - 1`` of
        the dynamic state, the events stepped so far less one of a fresh
        scorer, which keeps no log. Counting begins with the first entry,
        which a direct ``reselect_option`` call fills; in a whole dynamic replay,
        each step of the timed dynamic state that reaches its boundary with
        events logged begins the next entry, which takes over the forks that
        state took in the period it logged."""
        calls = []
        dynamic_forks = []
        real_step, real_new_state, real_fork = engine.step, engine.new_state, engine._fork

        def begin():
            calls.append({"fresh": 0, "steps": dict.fromkeys(AllocationPolicy, 0),
                          "forks": dynamic_forks[:]})
            dynamic_forks.clear()

        def step_counted(state, event):
            if state.untimed:
                calls[-1]["steps"][state.config.current_policy] += 1
            elif state.log and state.variant is SimVariant.DYNAMIC and (
                    event.time >= state.next_reselect):
                begin()
            return real_step(state, event)

        def new_state_counted(*args):
            calls[-1]["fresh"] += 1
            return real_new_state(*args)

        def fork_counted(state, policy):
            if state.untimed:
                calls[-1]["forks"].append(calls[-1]["steps"][state.config.current_policy] - 1)
            else:
                dynamic_forks.append(len(state.log) - 1)
            return real_fork(state, policy)

        begin()
        monkeypatch.setattr(engine, "step", step_counted)
        monkeypatch.setattr(engine, "new_state", new_state_counted)
        monkeypatch.setattr(engine, "_fork", fork_counted)
        return calls

    @staticmethod
    def check(record, calls, current, seen, handed=None):
        """The record against the calls counted while it was made; ``handed``
        is the log index of a fork handed to a direct call."""
        (other,) = set(AllocationPolicy) - {current}
        assert calls["fresh"] == (record.origin == "replay")
        assert calls["steps"] == {current: record.replay_steps, other: record.challenger_steps}
        forks = [] if record.fork is None else [record.fork]
        if handed is None:
            assert calls["forks"] == forks
        else:
            assert calls["forks"] == [] and forks == [handed]
        assert (record.score is None) is (record.challenger_score is None) is (not forks)
        if forks:
            (dsn, segments), (theirs, their_segments) = record.score, record.challenger_score
            wins = theirs > dsn or theirs == dsn and their_segments < segments
            assert record.chosen == (other if wins else current).value
            seen["wins" if wins else "loses"] += 1
            seen[f"forked, {record.origin}"] += 1
        else:
            assert record.challenger_steps == 0 and record.chosen == current.value
        seen[record.origin] += 1

    SEEN = ("records", "replay", "none", "forked, records", "forked, replay", "wins", "loses")

    def test_direct_calls_on_random_logs(self, monkeypatch):
        rng = random.Random(55)
        seen = dict.fromkeys(self.SEEN, 0)
        for _ in range(300):
            spec, log = scoring_fleet_and_log(rng)
            config = SchedulerConfig(n=rng.randint(1, 3),
                                     current_policy=rng.choice(list(AllocationPolicy)))
            scorer = None
            if rng.random() < 0.5:
                scorer = logged_period(log, spec, config.current_policy, config.n)
            calls = self.count_calls(monkeypatch)
            _, record = reselect(list(log), spec, config, scorer)
            monkeypatch.undo()
            (counted,) = calls
            handed = None
            if scorer is not None and scorer.challenger is not None:
                handed = next(i for i, e in enumerate(log) if e is scorer.challenger[1])
            self.check(record, counted, config.current_policy, seen, handed)
        assert all(seen.values()), seen

    def test_whole_dynamic_replays(self, monkeypatch):
        rng = random.Random(56)
        seen = dict.fromkeys(self.SEEN, 0)
        for _ in range(60):
            spec, events, n, period = episodic_fleet_and_trace(rng)
            calls = self.count_calls(monkeypatch)
            report = run(events, spec, SimVariant.DYNAMIC, n, reselect_period=period)
            monkeypatch.undo()
            policy = AllocationPolicy.SMALLEST_FIRST
            # the first entry counts the replay's own fleet
            for record, counted in zip(report.reselections, calls[1:], strict=True):
                self.check(record, counted, policy, seen)
                policy = AllocationPolicy(record.chosen)
        assert all(seen.values()), seen


class TestFreshFleetScoring:
    """Reselection scores a period on a fresh fleet, so it cannot see
    fragmentation that took longer than a period to build."""

    def test_grants_composed_on_the_live_fleet_leave_dynamic_at_opt1(self):
        """On one 6 GiB machine three 1 GiB VMs start in period 1 and live
        on. In period 2 the middle one stops, so the live fleet composes a
        3.5 GiB start from its 1 GiB hole and its 3 GiB tail, while the
        period's log, replayed on a fresh fleet, grants every start one
        segment. No reselection forks a challenger, so the dynamic replay
        answers exactly as opt1 does."""
        events = [start_event(v, t, 1, GIB) for t, v in enumerate("abc")]
        events += [stop_event("b", 1100), start_event("d", 1200, 1, 7 * GIB // 2),
                   start_event("e", 1300, 1, GIB // 4)]
        events += [stop_event(v, 2100) for v in "acde"] + [start_event("f", 3000, 1, GIB)]
        spec = one_machine_spec(ram_gib=6)
        dynamic = run(events, spec, SimVariant.DYNAMIC, n=1, reselect_period=1000.0)
        opt1 = run(events, spec, SimVariant.PLACEMENT_OPT1, n=1)
        assert [r.k for r in dynamic.records if r.vm_id == "d"] == [2]
        assert [r.origin for r in dynamic.reselections] == ["records", "replay", "none"]
        assert all(r.fork is None for r in dynamic.reselections)
        assert dynamic.core()["records"] == opt1.core()["records"]
        assert dynamic.final_free == opt1.final_free


class TestFork:
    """``_fork`` hands the challenger the current policy's replay state from
    just before its first composed grant; ``_start_vm`` takes it there."""

    @staticmethod
    def machine_state(state):
        return [(m.machine_id, m.cores_free, m.free_list.segments, m.free_list.free_bytes,
                 m.free_list.max_segment) for m in state.machines]

    @staticmethod
    def outcome(state, since=0):
        return ([(r.vm_id, r.time, r.machine_id, r.k, r.mode) for r in state.records[since:]],
                sorted(state.live), state.rejected, state.rejections, state.anomalies)

    def test_fork_replays_as_a_fresh_replay_from_the_composed_start(self):
        rng = random.Random(49)
        forks = 0
        for _ in range(40):
            spec, log = scoring_fleet_and_log(rng)
            events = event_order(log)
            for current in AllocationPolicy:
                (other,) = set(AllocationPolicy) - {current}
                challenger = SimVariant(other.value)
                # the scorer of a period begun with VMs live, as reselection
                # builds it
                state = new_state(spec, SimVariant(current.value), n=2)
                state.drained = state.untimed = True
                for i, event in enumerate(events):
                    step(state, event)
                    if state.challenger is not None:
                        break
                else:
                    continue
                forks += 1
                fork, at, first = state.challenger
                # taken at this start, whose grant is the state's last record
                assert at is event and first == len(state.records) - 1
                assert state.records[first].vm_id == event.vm_id and state.records[first].k > 1
                for field in dataclasses.fields(fork):
                    value = getattr(fork, field.name)
                    if isinstance(value, (list, dict, set, SchedulerConfig)):
                        assert value is not getattr(state, field.name), field.name
                for mine, theirs in zip(fork.machines, state.machines):
                    assert mine is not theirs
                    assert mine.free_list is not theirs.free_list
                    assert mine.free_list.bases is not theirs.free_list.bases
                    assert mine.free_list.sizes is not theirs.free_list.sizes
                assert fork.variant is challenger
                assert fork.config.current_policy is other
                assert fork.untimed and not fork.drained

                fresh = new_state(spec, challenger, n=2)
                for event in events[:i]:
                    step(fresh, event)
                assert self.machine_state(fork) == self.machine_state(fresh)
                assert fork.index == fresh.index
                # the fork holds no records: the fresh replay's are all k = 1
                assert fork.records == [] and len(fresh.records) == first
                assert all(r.k == 1 for r in fresh.records)
                assert self.outcome(fork) == self.outcome(fresh, first)
                # the current policy's replay goes on first, as in reselection
                for event in events[i + 1:]:
                    step(state, event)
                for event in events[i:]:
                    step(fork, event)
                    step(fresh, event)
                assert self.outcome(fork) == self.outcome(fresh, first)
                assert self.machine_state(fork) == self.machine_state(fresh)
        assert forks > 10

    def test_fork_releases_nothing_and_leaves_its_origin_unchanged(self, monkeypatch):
        """``_fork`` copies a state as it stands, VMs live: it releases no
        VM, changes nothing of the state it copies (free-list columns,
        placement index, live VMs, records), and the copy holds no records
        and no drained period, so it never forks itself."""
        rng = random.Random(52)
        checked = 0

        def snapshot(state):
            return ([(list(m.free_list.bases), list(m.free_list.sizes), m.free_list.free_bytes,
                      m.free_list.max_segment, m.cores_free) for m in state.machines],
                    list(state.index), dict(state.live), list(state.records))

        for _ in range(30):
            spec, log = scoring_fleet_and_log(rng)
            state = new_state(spec, SimVariant.DYNAMIC, n=2)
            for event in log:
                step(state, event)
            if not state.live:
                continue
            before = snapshot(state)
            releases = []
            monkeypatch.setattr(engine, "release", lambda *args: releases.append(args))
            monkeypatch.setattr(engine, "_release", lambda *args: releases.append(args))
            fork = engine._fork(state, AllocationPolicy.LARGEST_FIRST)
            monkeypatch.undo()
            assert releases == []
            assert snapshot(state) == before
            assert fork.records == [] and fork.drained is False
            assert sorted(fork.live) == sorted(state.live)
            checked += 1
        assert checked > 10, checked


class TestDrainedFleetIsFresh:
    """Scoring a period from the dynamic replay's records rests on this: once
    every VM has stopped, a segment fleet equals a freshly built one."""

    @staticmethod
    def machine_state(state):
        return [(m.free_list.segments, m.free_list.free_bytes, m.free_list.max_segment,
                 m.cores_free) for m in state.machines]

    @pytest.mark.parametrize("variant", [SimVariant.PLACEMENT_OPT1, SimVariant.PLACEMENT_OPT2,
                                         SimVariant.DYNAMIC], ids=lambda v: v.value)
    def test_every_drain_restores_a_fresh_fleet(self, variant):
        rng = random.Random(46)
        drains = composed = 0
        for _ in range(30):
            spec = FleetSpec((Generation("m", rng.randint(6, 10) * GIB + rng.randint(1, 9) * 4096,
                                         64, 100.0),), rng.randint(1, 3))
            events = []
            for i in range(rng.randint(20, 80)):
                t = rng.randint(0, 2000)
                demand = rng.randint(1, 8) * GIB // 2 + rng.randint(0, 3 * PAGE_SIZE)
                events.append(start_event(f"vm{i}", t, 1, demand))
                events.append(stop_event(f"vm{i}", t + rng.randint(1, 600)))
            fresh = new_state(spec, variant, n=2, reselect_period=300.0)
            state = new_state(spec, variant, n=2, reselect_period=300.0)
            for event in event_order(events):
                step(state, event)
                if not state.live:
                    drains += 1
                    assert self.machine_state(state) == self.machine_state(fresh)
                    assert state.index == fresh.index
            composed += any(r.k > 1 for r in state.records)
        assert drains > 30 and composed > 0


class _GcJumpClock:
    """A thread clock that stands still, except that every garbage
    collection moves it on by one second."""

    def __init__(self):
        self.now_ns = 0
        self.collections = 0

    def thread_time(self):
        return self.now_ns / 1e9

    def thread_time_ns(self):
        return self.now_ns

    def on_gc(self, phase, info):
        if phase == "start":
            self.now_ns += 10**9
            self.collections += 1


class _SteppingClock:
    """A nanosecond thread clock that moves on by ``step_ns`` at each
    reading, from a start far enough from 0 that the same readings in float
    seconds would lose their last digits."""

    def __init__(self, step_ns):
        self.now_ns = 10**15 + 7
        self.step_ns = step_ns

    def thread_time_ns(self):
        self.now_ns += self.step_ns
        return self.now_ns


class TestAllocLatency:
    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
    def test_garbage_collection_is_not_charged_to_a_grant(self, variant, monkeypatch):
        """Driven through ``step``, outside ``run``'s hold, collections land
        between grants and none inside a timed call."""
        clock = _GcJumpClock()
        monkeypatch.setattr(engine, "_time", clock)
        events = gen_synthetic(200, DEFAULT_FLAVORS, Distribution.exponential(120),
                               Distribution.exponential(6000), 7)
        threshold = gc.get_threshold()
        gc.callbacks.append(clock.on_gc)
        gc.set_threshold(1, 1, 1)
        try:
            state = new_state(default_fleet_spec(20), variant)
            for event in event_order(events):
                step(state, event)
            report = finish(state)
        finally:
            gc.set_threshold(*threshold)
            gc.callbacks.remove(clock.on_gc)
        assert clock.collections > 0
        assert report.placed > 0
        assert all(r.alloc_latency == 0 for r in report.records)

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
    def test_latency_is_the_exact_nanosecond_difference(self, variant, monkeypatch, tmp_path):
        """Each latency is ``(t1 - t0) / 1e9`` of two nanosecond readings,
        exactly, and report.json writes its short repr."""
        monkeypatch.setattr(engine, "_time", _SteppingClock(19_385))
        events = gen_synthetic(40, DEFAULT_FLAVORS, Distribution.exponential(120),
                               Distribution.exponential(6000), 7)
        report = run(events, default_fleet_spec(4), variant)
        assert report.placed > 0
        assert all(r.alloc_latency == 19_385 / 1e9 for r in report.records)
        assert repr(report.records[0].alloc_latency) == "1.9385e-05"
        (path,) = emit(report, "json", tmp_path)
        records = path.read_text(encoding="utf-8").split('"records": ')[1]
        assert records.count('"alloc_latency": 1.9385e-05}') == report.placed

    def test_grant_leaves_garbage_collection_off_when_it_was_off(self):
        was_on = gc.isenabled()
        gc.disable()
        try:
            run([start_event("vm", 0, 1, GIB)], one_machine_spec(), SimVariant.PLACEMENT_OPT1)
            assert not gc.isenabled()
        finally:
            if was_on:
                gc.enable()


class _CountingClock:
    """A nanosecond thread clock that counts its readings."""

    def __init__(self):
        self.reads = 0

    def thread_time_ns(self):
        self.reads += 1
        return self.reads


class TestUntimedScoring:
    def test_scoring_replays_read_no_clock(self, monkeypatch):
        """Only the dynamic replay's own grants are timed, with two clock
        readings and one ``gc.disable`` each, beside ``run``'s one for the
        whole replay: its reselections' replays, forked in a period begun
        drained (periods 1 and 3, by the dynamic replay) and in one begun
        with VMs live (period 2, by the current policy's fresh replay, itself
        untimed), grant untimed, with a latency of 0.0."""
        events = (composing_period(0, "p") + stops(1000, "p") + composing_period(1500, "q")
                  + stops(1600, "q") + composing_period(2000, "r") + stops(3000, "r"))
        clock = _CountingClock()
        disable = mock.Mock(wraps=gc.disable)
        monkeypatch.setattr(engine, "_time", clock)
        monkeypatch.setattr(gc, "disable", disable)
        report = run(events, one_machine_spec(ram_gib=4), SimVariant.DYNAMIC, n=2,
                     reselect_period=1000.0)
        monkeypatch.undo()
        assert len(report.option_switches) == 3
        assert [r.origin for r in report.reselections] == ["records", "replay", "records"]
        # each challenger placed the composed start it was forked at, untimed
        assert all(r.fork is not None and r.challenger_steps for r in report.reselections)
        assert clock.reads == 2 * len(report.records)
        assert disable.call_count == len(report.records) + 1
        assert all(r.alloc_latency == 1e-9 for r in report.records)


def forking_replay():
    """A dynamic replay whose reselections fork in periods begun drained
    (the first and third) and score a period begun with VMs live on a fresh
    fleet (the second)."""
    events = (composing_period(0, "p") + stops(1000, "p") + composing_period(1500, "q")
              + stops(1600, "q") + composing_period(2000, "r") + stops(3000, "r"))
    return events, one_machine_spec(ram_gib=4), SimVariant.DYNAMIC, 2, 1000.0


def synthetic_replays():
    events = gen_synthetic(200, DEFAULT_FLAVORS, Distribution.exponential(120),
                           Distribution.exponential(6000), 7)
    return [(events, default_fleet_spec(20), variant, 3, 6 * 3600.0) for variant in VARIANTS]


class TestCollectorHeldOff:
    """``run`` makes no reference cycle, so it holds automatic garbage
    collection off from building the state to the report, and leaves the
    switch as it found it."""

    def test_a_replay_leaves_no_reference_cycle(self):
        was_on = gc.isenabled()
        gc.disable()
        try:
            for events, spec, variant, n, period in synthetic_replays() + [forking_replay()]:
                gc.collect()
                report = run(events, spec, variant, n, reselect_period=period)
                assert gc.collect() == 0, variant
                assert report.placed > 0
        finally:
            if was_on:
                gc.enable()
        assert [r.origin for r in report.reselections] == ["records", "replay", "records"]
        assert all(r.fork is not None for r in report.reselections)

    @pytest.mark.parametrize("gc_on", [True, False])
    def test_no_collection_runs_inside_a_replay(self, gc_on):
        """With every threshold at 1, a collection would start at almost
        every allocation; none starts while ``run`` is on the stack."""
        inside = []

        def on_gc(phase, info):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not engine.run.__code__:
                frame = frame.f_back
            if phase == "start" and frame is not None:
                inside.append(info)

        was_on, threshold = gc.isenabled(), gc.get_threshold()
        (gc.enable if gc_on else gc.disable)()
        gc.callbacks.append(on_gc)
        gc.set_threshold(1, 1, 1)
        try:
            for events, spec, variant, n, period in synthetic_replays() + [forking_replay()]:
                report = run(events, spec, variant, n, reselect_period=period)
                assert gc.isenabled() is gc_on
                assert report.placed > 0
        finally:
            gc.set_threshold(*threshold)
            gc.callbacks.remove(on_gc)
            (gc.enable if was_on else gc.disable)()
        assert inside == []


class TestFrozenFleet:
    """``run`` leaves a caller's frozen heap and the collector's switch as it
    found them, also when the set-up fails."""

    def test_reselection_replays_leave_the_frozen_heap_frozen(self):
        """A reselection's replay runs nested in the dynamic one: it must not
        thaw a heap the caller froze (no module calls ``gc.unfreeze``, which
        ``tests/test_structure.py`` checks)."""
        spec = one_machine_spec(ram_gib=4)
        events = composing_period(0, "p") + stops(1000, "p")
        gc.freeze()
        try:
            before = gc.get_freeze_count()
            report = run(events, spec, SimVariant.DYNAMIC, reselect_period=1000.0)
            assert gc.get_freeze_count() == before
        finally:
            gc.unfreeze()
        assert report.option_switches and any(r.fork is not None for r in report.reselections)

    @pytest.mark.parametrize("gc_on", [True, False])
    def test_failed_set_up_restores_collection(self, gc_on):
        was_on = gc.isenabled()
        (gc.enable if gc_on else gc.disable)()
        try:
            with pytest.raises(ValueError):
                run([start_event("vm", 0, 1, GIB)], one_machine_spec(), SimVariant.BASELINE,
                    n=0)
            assert gc.isenabled() is gc_on
            assert gc.get_freeze_count() == 0
        finally:
            (gc.enable if was_on else gc.disable)()
