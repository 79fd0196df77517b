"""Slow references for the fast paths: a page-granularity bitmap mirror that
cross-checks both allocators, the segment allocator's plan on a copy of the
free list with two scans per fit, its release with two bisects per segment,
the fleet-wide resource filter that the placement index's walk must agree
with, report.json's payload built by deep copy and its text built by
``json.dumps`` of one dict per record, and the trace parser that converts a
row's fields one call at a time.

``replay`` is the whole-replay reference: ``engine.run(...).core()`` for any
variant, from a fleet-wide filter, ``plan_by_copy`` on every fitting
machine, a freshly seeded buddy allocator per baseline machine whose free
runs are merged one block at a time (``per_block_free_runs``), and
reselection by two full replays of itself on a fresh fleet. It shares no
walk, seed, free-list column, free-run merge or fork with the engine.
``episodic_fleet_and_trace`` draws the seeded traces it is checked on, which
``tools/digests.py`` replays too."""

from __future__ import annotations

import bisect
import csv
import io
import json
from dataclasses import asdict, dataclass

import numpy as np

from dsegsim.baseline import BuddyAllocator
from dsegsim.report import summary_dict
from dsegsim.scheduler import SimVariant
from dsegsim.segments import (
    PAGE_SIZE,
    AllocationPolicy,
    InvalidSizeError,
    OverlapError,
    SegmentDescriptor,
)
from dsegsim.trace import (
    TRACE_HEADER,
    EventKind,
    FleetSpec,
    Generation,
    TraceFormatError,
    VmEvent,
    event_order,
    generation_counts,
    start_event,
    stop_event,
)

GIB = 1 << 30


class BitmapOracle:
    """Tracks byte occupancy one 4 KiB page at a time.

    Driven with the same allocate/release sequence as the allocator under
    test; any disagreement about which pages are occupied trips an assert.
    """

    def __init__(self, total_bytes: int, reserved_bytes: int = 0):
        # only whole pages above the reservation are user memory
        self.n_pages = total_bytes // PAGE_SIZE
        self.reserved = -(-reserved_bytes // PAGE_SIZE)
        self.occupied = np.zeros(self.n_pages, dtype=bool)
        self.occupied[: self.reserved] = True
        self.free_pages = self.n_pages - self.reserved

    def _pages(self, seg) -> tuple[int, int]:
        assert seg.base % PAGE_SIZE == 0 and seg.limit % PAGE_SIZE == 0
        assert seg.limit <= self.n_pages * PAGE_SIZE, f"{seg} beyond the last whole page"
        return seg.base // PAGE_SIZE, seg.limit // PAGE_SIZE

    def mark_allocated(self, segments) -> None:
        for seg in segments:
            lo, hi = self._pages(seg)
            assert not self.occupied[lo:hi].any(), f"{seg} granted over occupied pages"
            self.occupied[lo:hi] = True
            self.free_pages -= hi - lo

    def mark_released(self, segments) -> None:
        for seg in segments:
            lo, hi = self._pages(seg)
            assert self.occupied[lo:hi].all(), f"{seg} released but partly free"
            self.occupied[lo:hi] = False
            self.free_pages += hi - lo

    def free_runs(self) -> list[tuple[int, int]]:
        """Free memory as maximal contiguous (base, limit) byte ranges."""
        padded = np.concatenate(([True], self.occupied, [True]))
        diff = np.diff(padded.astype(np.int8))
        starts = np.flatnonzero(diff == -1)
        ends = np.flatnonzero(diff == 1)
        return [
            (int(s) * PAGE_SIZE, int(e) * PAGE_SIZE) for s, e in zip(starts, ends)
        ]

    def assert_matches_free_list(self, flist) -> None:
        assert self.free_runs() == [(s.base, s.limit) for s in flist.segments]

    def assert_matches_runs(self, runs) -> None:
        assert self.free_runs() == [tuple(r) for r in runs]


def _pop_exact(free, size):
    # Exact fit, lowest base wins ties; list is base-ordered so the first hit wins.
    for i, seg in enumerate(free):
        if seg.size == size:
            return free.pop(i)
    return None


def _largest(free, above):
    """Index of the largest segment with size > above (lowest base on ties),
    or -1."""
    best = -1
    best_size = above
    for i, seg in enumerate(free):
        if seg.size > best_size:
            best = i
            best_size = seg.size
    return best


def plan_by_copy(segments, demand, policy):
    """The segment allocator's plan as first written: (grants, remaining free
    list) computed on a copy, with one scan for an exact fit and another for
    the largest bigger segment. None when the demand exceeds the list's
    total, which the list then runs out before covering."""
    free = list(segments)
    grants = []
    remaining = demand
    while True:
        exact = _pop_exact(free, remaining)
        if exact is not None:
            grants.append(exact)
            return grants, free
        i = _largest(free, remaining)
        if i >= 0:
            base, limit = free[i].base, free[i].limit
            grants.append(SegmentDescriptor(base, base + remaining))
            free[i] = SegmentDescriptor(base + remaining, limit)
            return grants, free
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


def release_two_pass(flist, released):
    """The free list that releasing ``released`` into ``flist`` leaves, as
    release was first written, on a copy: every segment checked against its
    neighbours, then each inserted lowest base first, bisected again and
    merged with the neighbours it abuts. Raises what release raises."""
    free = list(flist.segments)
    segs = sorted(released, key=lambda s: s.base)
    for a, b in zip(segs, segs[1:]):
        if b.base < a.limit:
            raise OverlapError(f"released {a} and {b} overlap")
    if segs and (segs[0].base < flist.reserved_bytes or segs[-1].limit > flist.total_bytes):
        raise InvalidSizeError(f"released segments outside the user region: {segs}")
    for seg in segs:
        i = bisect.bisect_right(free, seg.base, key=lambda s: s.base)
        if i > 0 and free[i - 1].limit > seg.base or i < len(free) and seg.limit > free[i].base:
            raise OverlapError(f"released {seg} overlaps a free segment")
    for seg in segs:
        i = bisect.bisect_right(free, seg.base, key=lambda s: s.base)
        base, limit = seg.base, seg.limit
        lo = hi = i
        if i > 0 and free[i - 1].limit == base:
            lo, base = i - 1, free[i - 1].base
        if i < len(free) and free[i].base == limit:
            hi, limit = i + 1, free[i].limit
        free[lo:hi] = [SegmentDescriptor(base, limit)]
    return free


def filter_resources(machines, cores, memory) -> list:
    """Keep machines with at least ``cores`` free cores and ``memory`` free
    bytes."""
    return [m for m in machines if m.cores_free >= cores and m.free_bytes >= memory]


@dataclass
class _Machine:
    """A machine of ``replay``: its free cores, its memory (a base-ordered
    list of free ``SegmentDescriptor`` on the segment variants, a
    ``BuddyAllocator`` on the baseline) and the bytes its grants left free."""

    machine_id: int
    cores_free: int
    memory: list | BuddyAllocator
    free_bytes: int


def _fresh_fleet(fleet_spec, baseline) -> list[_Machine]:
    """The spec's machines, ids counting up through the generations, each
    with a user region of the whole pages above its reservation: a freshly
    seeded buddy allocator on the baseline, one free segment elsewhere."""
    reserved = fleet_spec.reserved_bytes
    base = -(-reserved // PAGE_SIZE) * PAGE_SIZE
    machines = []
    for gen, count in zip(fleet_spec.generations, generation_counts(fleet_spec)):
        for _ in range(count):
            i = len(machines)
            limit = gen.ram_bytes // PAGE_SIZE * PAGE_SIZE
            if baseline:
                memory = BuddyAllocator(gen.ram_bytes, reserved, machine_id=i)
            else:
                memory = [SegmentDescriptor(base, limit)]
            machines.append(_Machine(i, gen.cores, memory, limit - base))
    return machines


def _merged(free, released) -> list:
    """A free list with released segments merged back: all sorted by base,
    then each abutting pair joined."""
    runs = []
    for seg in sorted([*free, *released], key=lambda s: s.base):
        assert not runs or runs[-1].limit <= seg.base, f"{seg} released over free memory"
        if runs and runs[-1].limit == seg.base:
            runs[-1] = SegmentDescriptor(runs[-1].base, seg.limit)
        else:
            runs.append(seg)
    return runs


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


def replay(events, fleet_spec, variant, n, period) -> dict:
    """``engine.run(events, fleet_spec, variant, n, reselect_period=period)
    .core()`` as specified, sharing no fast path with the engine. Each start
    rounds its demand up to whole pages and keeps every machine with the
    free cores and bytes for it. The baseline takes the most free cores,
    then the lowest id, and grants from that machine's own buddy allocator.
    The segment variants plan the grant on a copy of each kept machine's
    free list (``plan_by_copy``) and take the fewest segments, then the most
    free bytes, then the lowest id; a release sorts its segments back in. The dynamic variant starts at opt1 and, at each
    period boundary with events logged, replays the log on a fresh fleet
    under both policies with this function and adopts the one with more VMs
    at k <= n, then fewer segments, then the current one."""
    baseline = variant is SimVariant.BASELINE
    machines = _fresh_fleet(fleet_spec, baseline)
    policy = (AllocationPolicy.LARGEST_FIRST if variant is SimVariant.PLACEMENT_OPT2
              else AllocationPolicy.SMALLEST_FIRST)
    live, rejected, records, switches, log = {}, set(), [], [], []
    rejections = anomalies = 0
    boundary = period
    for event in event_order(events):
        if variant is SimVariant.DYNAMIC:
            if event.time >= boundary:
                if log:
                    policy = _reselect(log, fleet_spec, n, period, policy)
                    switches.append((int(boundary), policy.value))
                    log = []
                boundary += ((event.time - boundary) // period + 1) * period
            log.append(event)
        vm_id = event.vm_id
        if event.kind is EventKind.STOP:
            if vm_id in live:
                _free(vm_id, *live.pop(vm_id))
            elif vm_id in rejected:
                rejected.discard(vm_id)
            else:
                anomalies += 1
            continue
        if vm_id in live:
            anomalies += 1
            continue
        memory = -(-event.memory_bytes // PAGE_SIZE) * PAGE_SIZE
        kept = [m for m in machines if m.cores_free >= event.cores and m.free_bytes >= memory]
        if not kept:
            rejections += 1
            rejected.add(vm_id)
            continue
        if baseline:
            machine = min(kept, key=lambda m: (-m.cores_free, m.machine_id))
            segments = machine.memory.allocate(vm_id, memory).segments
        else:
            plans = {m.machine_id: plan_by_copy(m.memory, memory, policy) for m in kept}
            machine = min(kept, key=lambda m: (len(plans[m.machine_id][0]), -m.free_bytes,
                                               m.machine_id))
            segments, machine.memory = plans[machine.machine_id]
        machine.cores_free -= event.cores
        machine.free_bytes -= sum(s.size for s in segments)
        live[vm_id] = machine, event.cores, segments
        k = len(segments)
        records.append((vm_id, event.time, machine.machine_id, k,
                        "dsn" if k <= n else "fallback"))
    implicit = len(live)
    for vm_id, vm in live.items():
        _free(vm_id, *vm)
    return {
        "variant": variant.value, "n": n, "seed": 0, "machine_count": len(machines),
        "start_count": len(records) + rejections, "records": records,
        "rejections": rejections, "anomalies": anomalies, "implicit_stops": implicit,
        "option_switches": switches,
        "final_free": {str(m.machine_id): list(per_block_free_runs(m.memory)) if baseline
                       else [(s.base, s.limit) for s in m.memory] for m in machines},
    }


def _free(vm_id, machine, cores, segments) -> None:
    machine.cores_free += cores
    machine.free_bytes += sum(s.size for s in segments)
    if isinstance(machine.memory, BuddyAllocator):
        machine.memory.release(vm_id)
    else:
        machine.memory = _merged(machine.memory, segments)


def _reselect(log, fleet_spec, n, period, current):
    """The policy a reselection adopts: the one whose replay of the log on a
    fresh fleet places more VMs at k <= n, then in fewer segments, then the
    current one."""
    def score(policy):
        ks = [r[3] for r in replay(log, fleet_spec, SimVariant(policy.value), n, period)["records"]]
        return sum(k <= n for k in ks), -sum(ks)

    (other,) = set(AllocationPolicy) - {current}
    return other if score(other) > score(current) else current


def episodic_fleet_and_trace(rng):
    """1-6 machines, most often one or two: hosts of 4-8 GiB plus an odd byte
    count with 4-16 cores, mostly beside a generation of 1 GiB plus an odd
    byte count with 1-2 cores, too small for some starts; an odd reservation
    or none. 30-250 VMs (log-uniform, so short traces are cheap and long
    ones switch policy back and forth) of 1-3 cores and 1/8-4 GiB plus up to
    two pages start in episodes of 30, within half a period of 200 s to a day. Before each
    start, live VMs stop at random while the live demand exceeds 70-90 % of
    the fleet's bytes, so grants compose; the rest stop 0.9-3 periods after
    the episode began. Most episodes begin at a boundary, some after empty
    periods, one in four at once. One start in 20 restarts a stopped VM, and
    one in 30 is repeated (a duplicate), another followed by the stop of a
    ghost (unknown). Returns the fleet, the trace, n and the period."""
    def odd():
        return rng.randrange(1, 3 * PAGE_SIZE, 2)

    share = rng.choice((50.0, 75.0, 100.0))
    spec = FleetSpec((Generation("host", rng.randint(4, 8) * GIB + odd(), rng.randint(4, 16), share),
                      Generation("small", GIB + odd(), rng.randint(1, 2), 100.0 - share)),
                     rng.choice((1, 1, 1, 1, 2, 2, 2, 3, 4, 5, 6)), rng.choice((0, odd())))
    capacity = sum(g.ram_bytes * count for g, count in zip(spec.generations, generation_counts(spec)))
    period = rng.choice((200, 600, 3600, 6 * 3600, 86400))
    events, live, stopped = [], {}, []
    t = began = 0
    for i in range(int(30 * (250 / 30) ** rng.random())):
        if i and i % 30 == 0:
            end = began + int(period * rng.choice((0.9, 0.9, 1.5, 3)))
            events += [stop_event(vm, end) for vm in live]
            stopped += live
            live = {}
            if rng.random() < 0.75:
                t = (end // period + rng.choice((1, 1, 2, 3))) * period
            began = t
        t += rng.randint(1, period // 60)
        while live and sum(live.values()) > capacity * rng.uniform(0.7, 0.9):
            vm = rng.choice(sorted(live))
            del live[vm]
            stopped.append(vm)
            events.append(stop_event(vm, t))
        draw = rng.random()
        vm = stopped.pop(rng.randrange(len(stopped))) if draw < 0.05 and stopped else f"vm{i}"
        live[vm] = rng.randint(1, 16) * GIB // rng.choice((4, 8)) + rng.randint(0, 2 * PAGE_SIZE)
        events.append(start_event(vm, t, rng.randint(1, 3), live[vm]))
        if draw > 0.97:
            events.append(start_event(vm, t, 1, GIB))
        elif draw > 0.94:
            events.append(stop_event(f"ghost{i}", t))
    events += [stop_event(vm, began + int(period * rng.choice((0.9, 1.5)))) for vm in live]
    return spec, events, rng.randint(1, 3), float(period)


def report_payload(report) -> dict:
    """report.json's object as first specified: the summary, each record
    deep-copied by ``asdict``, every free span copied into a list, and each
    reselection's record by ``asdict``."""
    payload = summary_dict(report)
    payload["records"] = [asdict(r) for r in report.records]
    payload["final_free"] = {
        str(m): [list(span) for span in spans]
        for m, spans in sorted(report.final_free.items())
    }
    payload["reselections"] = [asdict(r) for r in report.reselections]
    return payload


def report_json_by_dumps(report) -> str:
    """report.json's text as ``emit`` wrote it before records were written
    by template: the summary dict, one dict per record in ``VmRecord``'s
    field order, the sorted free spans, and one dict per reselection in
    ``Reselection``'s field order, through one ``json.dumps``."""
    payload = summary_dict(report)
    payload["records"] = [
        {"vm_id": r.vm_id, "time": r.time, "machine_id": r.machine_id, "k": r.k,
         "mode": r.mode, "alloc_latency": r.alloc_latency}
        for r in report.records
    ]
    payload["final_free"] = {
        str(m): spans for m, spans in sorted(report.final_free.items())
    }
    payload["reselections"] = [
        {"origin": r.origin, "chosen": r.chosen, "fork": r.fork,
         "replay_steps": r.replay_steps, "challenger_steps": r.challenger_steps,
         "score": r.score, "challenger_score": r.challenger_score}
        for r in report.reselections
    ]
    return json.dumps(payload) + "\n"


def _field_int(row, idx, name, lineno):
    try:
        return int(row[idx])
    except (ValueError, IndexError):
        raise TraceFormatError(lineno, f"bad {name} in {row!r}") from None


def row_lines(row):
    """The file lines a CSV record spans: one, plus one per line break that
    its quoted fields hold."""
    return 1 + sum(field.count("\n") for field in row)


def parse_trace_by_field(text):
    """``parse_trace`` as it was before each row's event was built in one
    ``try``: every field converted by its own call, in the order the errors
    take precedence (field count, vm_id, time, then the kind's fields), then
    the event's own checks."""
    kinds = {kind.value: kind for kind in EventKind}
    events = []
    lines = []
    started = set()
    restarted = set()
    reader = csv.reader(io.StringIO(text))
    for row in reader:
        lineno = reader.line_num - row_lines(row) + 1  # the line the record begins on
        if not row or (lineno == 1 and tuple(row) == TRACE_HEADER):
            continue
        fields = len(row)
        if fields not in (3, 5):
            raise TraceFormatError(lineno, f"expected 3 or 5 fields, got {fields}")
        vm_id = row[0].strip()
        if not vm_id:
            raise TraceFormatError(lineno, "empty vm_id")
        kind = kinds.get(row[1].strip().lower())
        time = _field_int(row, 2, "time", lineno)
        if kind is EventKind.START:
            if fields != 5:
                raise TraceFormatError(lineno, "start row needs cores and memory_bytes")
            cores = _field_int(row, 3, "cores", lineno)
            memory_bytes = _field_int(row, 4, "memory_bytes", lineno)
            if vm_id in started:
                restarted.add(vm_id)
            started.add(vm_id)
        elif kind is EventKind.STOP:
            if fields == 5 and (row[3].strip() or row[4].strip()):
                raise TraceFormatError(lineno, "stop row must leave cores and memory empty")
            cores = memory_bytes = None
        else:
            raise TraceFormatError(lineno, f"unknown event kind {row[1]!r}")
        try:
            events.append(VmEvent(vm_id, kind, time, cores, memory_bytes))
        except ValueError as exc:
            raise TraceFormatError(lineno, str(exc)) from None
        lines.append(lineno)
    if restarted:
        order = sorted(
            (e.time, e.kind is EventKind.START, i)
            for i, e in enumerate(events)
            if e.vm_id in restarted
        )
        live = set()
        for _, is_start, i in order:
            vm_id = events[i].vm_id
            if not is_start:
                live.discard(vm_id)
            elif vm_id in live:
                raise TraceFormatError(lines[i], f"duplicate start for vm {vm_id!r}")
            else:
                live.add(vm_id)
    events.sort(key=lambda e: e.time)
    return events
