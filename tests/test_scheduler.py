import math
import random

import pytest

from dsegsim.engine import reselect_option
from dsegsim.scheduler import (
    MachineView,
    NoCandidateError,
    SchedulerConfig,
    filter_min_segments,
    fitting_machines,
)
from dsegsim.segments import (
    AllocationPolicy,
    FreeSegmentList,
    SegmentDescriptor,
    peek_segment_count,
)
from dsegsim.trace import FleetSpec, Generation, start_event, stop_event
from oracle import filter_resources

GIB = 1 << 30
OPT1 = AllocationPolicy.SMALLEST_FIRST
OPT2 = AllocationPolicy.LARGEST_FIRST


def machine(mid, spans, cores_free=8, total=32 * GIB):
    fl = FreeSegmentList(mid, total, 0, [SegmentDescriptor(b, l) for b, l in spans])
    return MachineView(mid, cores_free, fl)


class TestFilterResources:
    def test_no_free_cores_excluded(self):
        m = machine(0, [(0, 8 * GIB)], cores_free=0)
        assert filter_resources([m], 1, GIB) == []

    def test_exact_fit_is_inclusive(self):
        m = machine(0, [(0, 4 * GIB)], cores_free=2)
        assert filter_resources([m], 2, 4 * GIB) == [m]

    def test_mixed_fleet_matches_predicate(self):
        rng = random.Random(3)
        fleet = [
            machine(i, [(0, rng.randint(1, 64) * GIB)], cores_free=rng.randint(0, 16))
            for i in range(30)
        ]
        kept = filter_resources(fleet, 4, 10 * GIB)
        for m in fleet:
            expected = m.cores_free >= 4 and m.free_bytes >= 10 * GIB
            assert (m in kept) == expected


class TestMinSegmentFilter:
    def test_prefers_fewer_segments(self):
        a = machine(0, [(0, 8 * GIB)])
        b = machine(1, [(0, 4 * GIB), (5 * GIB, 9 * GIB)])
        assert filter_min_segments([a, b], 6 * GIB, OPT2) == 0

    def test_single_candidate(self):
        b = machine(7, [(0, 4 * GIB), (5 * GIB, 9 * GIB)])
        assert filter_min_segments([b], 6 * GIB, OPT1) == 7

    def test_all_infeasible_raises(self):
        a = machine(0, [(0, GIB)])
        with pytest.raises(NoCandidateError):
            filter_min_segments([a], 2 * GIB, OPT1)
        with pytest.raises(NoCandidateError):
            filter_min_segments([], 2 * GIB, OPT1)

    def test_tie_breaks_by_free_bytes_then_id(self):
        a = machine(3, [(0, 8 * GIB)])
        b = machine(1, [(0, 12 * GIB)])
        c = machine(2, [(0, 12 * GIB)])
        assert filter_min_segments([a, b, c], 2 * GIB, OPT1) == 1

    def test_chosen_k_is_minimal_over_random_fleets(self):
        for policy in (OPT1, OPT2):
            rng = random.Random(17)
            for _ in range(200):
                fleet = [_random_machine(rng, mid) for mid in range(rng.randint(2, 8))]
                memory = rng.randint(1, 2048) * (1 << 20)
                candidates = filter_resources(fleet, 1, memory)
                if not candidates:
                    continue
                try:
                    chosen = filter_min_segments(candidates, memory, policy)
                except NoCandidateError:
                    continue
                peeked = {
                    m.machine_id: peek_segment_count(m.free_list, memory, policy)
                    for m in candidates
                }
                best = peeked[chosen]
                assert best is not None
                assert all(k is None or best <= k for k in peeked.values()), policy


def _random_machine(rng, mid):
    total = rng.randint(8, 64) * GIB
    spans = []
    cursor = 0
    for _ in range(rng.randint(1, 6)):
        gap = rng.randint(0, 4) * (1 << 28)
        size = rng.randint(1, 16) * (1 << 28)
        if cursor + gap + size > total:
            break
        spans.append((cursor + gap, cursor + gap + size))
        cursor += gap + size
    if not spans:
        spans = [(0, total)]
    return machine(mid, spans, cores_free=16, total=total)


def walk_pick(fleet, cores, memory):
    """The baseline's pick: the first fit of the walk, with a threshold of 0,
    over a cores-keyed index of ``fleet``, as the engine keeps it for the
    baseline. With no fit the walk has passed no machine, and the engine's
    ``filter_min_segments`` over that empty list rejects the VM."""
    machines = {m.machine_id: m for m in fleet}
    index = sorted((-m.cores_free, m.machine_id) for m in fleet)
    machine, walked = fitting_machines(machines, index, cores, memory, cores, 0)
    assert walked == []
    if machine is None:
        return filter_min_segments(walked, memory, OPT1)
    return machine.machine_id


class TestBaselinePick:
    def test_idle_machine_wins(self):
        busy = machine(0, [(0, 8 * GIB)], cores_free=4)
        idle = machine(1, [(0, 8 * GIB)], cores_free=16)
        assert walk_pick([busy, idle], 1, GIB) == 1

    def test_equal_load_takes_lowest_id(self):
        a = machine(5, [(0, 8 * GIB)], cores_free=8)
        b = machine(2, [(0, 8 * GIB)], cores_free=8)
        assert walk_pick([a, b], 1, GIB) == 2

    def test_matches_argmax_oracle(self):
        rng = random.Random(23)
        for _ in range(100):
            fleet = [
                machine(mid, [(0, 8 * GIB)], cores_free=rng.randint(0, 32))
                for mid in range(rng.randint(1, 10))
            ]
            kept = filter_resources(fleet, 1, GIB)
            if not kept:
                with pytest.raises(NoCandidateError):
                    walk_pick(fleet, 1, GIB)
                continue
            best = min(kept, key=lambda m: (-m.cores_free, m.machine_id))
            assert walk_pick(fleet, 1, GIB) == best.machine_id

    def test_no_candidate_raises(self):
        assert fitting_machines({}, [], 1, GIB, 1, 0) == (None, [])
        with pytest.raises(NoCandidateError):
            walk_pick([], 1, GIB)


def composition_beats_smallest_log():
    """On {1G, 1G, 2G} holes a 3G VM needs 3 pieces smallest-first but only 2
    largest-first; with n=2 only the latter stays register-translatable."""
    return [
        start_event("a", 0, 1, GIB),
        start_event("b", 1, 1, GIB),
        start_event("c", 2, 1, GIB),
        start_event("d", 3, 1, GIB),
        stop_event("a", 4),
        stop_event("c", 5),
        start_event("e", 6, 1, 3 * GIB),
    ]


def smallest_first_preserves_big_hole_log():
    """Smallest-first keeps its leftover next to a future free, so a later
    2.5G VM lands in one piece; largest-first strands the leftover."""
    return [
        start_event("x", 0, 1, GIB),
        start_event("p", 1, 1, GIB),
        start_event("y", 2, 1, GIB),
        start_event("q", 3, 1, 3 * GIB),
        start_event("z", 4, 1, 2 * GIB),
        stop_event("p", 5),
        stop_event("q", 6),
        start_event("e", 7, 1, 7 * GIB // 2),
        stop_event("z", 8),
        start_event("f", 9, 1, 5 * GIB // 2),
    ]


class TestReselectOption:
    def fleet(self, ram_gib):
        return FleetSpec((Generation("m", ram_gib * GIB, 16, 100.0),), 1)

    def test_empty_log_keeps_current_policy(self):
        config = SchedulerConfig(n=2, current_policy=OPT2)
        assert reselect_option([], self.fleet(6), config) is OPT2

    def test_largest_first_wins_when_it_saves_the_decisive_vm(self):
        log = composition_beats_smallest_log()
        config = SchedulerConfig(n=2, current_policy=OPT1)
        assert reselect_option(log, self.fleet(6), config) is OPT2
        assert len(log) == 0  # log repository is reset

    def test_smallest_first_wins_when_it_keeps_big_segments(self):
        log = smallest_first_preserves_big_hole_log()
        config = SchedulerConfig(n=1, current_policy=OPT2)
        assert reselect_option(log, self.fleet(8), config) is OPT1

    def test_identical_outcomes_retain_current_policy(self):
        for current in (OPT1, OPT2):
            config = SchedulerConfig(n=2, current_policy=current)
            fresh = [start_event("a", 0, 1, GIB)]
            assert reselect_option(fresh, self.fleet(6), config) is current


class TestSchedulerConfig:
    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            SchedulerConfig(n=n)

    @pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf])
    def test_period_not_finite_and_positive_rejected(self, period):
        with pytest.raises(ValueError, match="reselect_period must be finite and positive"):
            SchedulerConfig(reselect_period=period)
