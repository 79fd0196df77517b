"""Discrete-event replay of a VM trace against a simulated fleet.

Events are processed in ``event_order``, by time with stops before starts at
equal times so memory frees before it is wanted; ``step`` refuses an event
that sorts before the last one it applied. Each start rounds its demand up
to whole pages, walks the placement index for the machines that fit it,
picks one by the variant's objective, grants the memory with the variant's
allocator, then types the VM (register-file translation when k <= n), all
in ``_start_vm``'s one frame. The engine times each allocator call of the
replay, which is the one non-reproducible output; everything else is
deterministic. Automatic garbage collection is held off only inside that
timed call; a replay otherwise leaves the collector as it finds it.

Every machine is a ``MachineView`` that starts with a one-segment free list,
which holds the same free bytes and free runs as a freshly seeded buddy
allocator. Just before a baseline machine's first grant it gets its own copy
of its shape's buddy seed (total and reserved bytes), which the replay seeds
at the first grant to any machine of that shape, so only shapes that are
granted are seeded and no seed is ever granted from. Every variant
keeps the placement index, ``(-free, machine_id)`` for every machine in
ascending order, keyed by free cores on the baseline and by free bytes
elsewhere (see ``scheduler``). No key function is stored: each grant and
release branches on the variant and moves the machine's entry by the
resource it has just changed.

``step`` is the one code that applies an event. ``run`` drives it over a
trace, and so does the dynamic variant's periodic policy reselection
(``reselect_option``), which scores both composition policies on the logged
events without ``run``. The policies differ only from a period's first
composed grant on, so ``_start_vm`` forks the other policy's replay just
before that grant, and the scores count only from there. A score reads
only k, so these scoring replays are untimed: their grants call the
allocator directly, with no clock reading and no garbage-collector switch,
and record a latency of 0.0. A period whose log cannot compose a grant on a
fresh fleet, because it holds no more starts than machines that could each
host its largest start, is scored without a replay.
"""

from __future__ import annotations

import bisect
import gc
import math
import time as _time
from dataclasses import dataclass, field, replace

from .baseline import BuddyAllocator
from .report import Reselection, SimulationReport, VmRecord
from .scheduler import (
    WEEK_SECONDS,
    MachineView,
    SchedulerConfig,
    SimVariant,
    filter_min_segments,
    fitting_machines,
)
from .segments import (
    PAGE_SIZE,
    AllocationPolicy,
    VMAllocation,
    VmMode,
    allocate,
    new_machine,
    release,
)
from .trace import EventKind, FleetSpec, VmEvent, build_fleet, event_order, generation_counts

# VmRecord.mode's strings and the Enum members tested per event, read once
# rather than through their classes per event
_DSN = VmMode.DSN.value
_FALLBACK = VmMode.FALLBACK.value
_START = EventKind.START
_STOP = EventKind.STOP
_BASELINE = SimVariant.BASELINE
_DYNAMIC = SimVariant.DYNAMIC


@dataclass(slots=True)
class LiveVm:
    """A placed VM until its stop. Slotted and unhashable; nothing mutates an
    instance, which a forked replay's ``live`` map shares with its origin."""

    machine_id: int
    allocation: VMAllocation
    cores: int


@dataclass
class SimulationState:
    variant: SimVariant
    config: SchedulerConfig
    fleet_spec: FleetSpec
    machines: list[MachineView]
    # (-free, machine_id) per machine, ascending, where free is the
    # machine's free cores on the baseline and its free bytes elsewhere
    index: list[tuple[int, int]]
    live: dict[str, LiveVm] = field(default_factory=dict)
    rejected: set[str] = field(default_factory=set)
    # the baseline's buddy seed per (total, reserved) bytes of a granted machine
    seeds: dict[tuple[int, int], BuddyAllocator] = field(default_factory=dict)
    log: list[VmEvent] = field(default_factory=list)
    records: list[VmRecord] = field(default_factory=list)
    rejections: int = 0
    anomalies: int = 0
    option_switches: list[tuple[int, str]] = field(default_factory=list)
    reselections: list[Reselection] = field(default_factory=list)  # one per option switch
    next_reselect: float = 0.0
    # dynamic only: whether no VM was live when the logged period began
    drained: bool = False
    # in a period begun drained, a copy of the state from just before the
    # period's first composed grant under the other policy, that start's
    # index in the log and the grant's index in records
    challenger: tuple[SimulationState, int, int] | None = None
    # a scoring replay, whose grants are neither timed nor kept from the
    # garbage collector
    untimed: bool = False
    # the (time, is start) key of the last event applied, before which
    # step takes no event: its time, and whether it was a start
    last_time: int = 0
    last_start: bool = False


# the policy a scoring replay challenges the current one with
_OTHER = {
    AllocationPolicy.SMALLEST_FIRST: AllocationPolicy.LARGEST_FIRST,
    AllocationPolicy.LARGEST_FIRST: AllocationPolicy.SMALLEST_FIRST,
}


def _variant_policy(variant: SimVariant) -> AllocationPolicy:
    if variant is SimVariant.PLACEMENT_OPT2:
        return AllocationPolicy.LARGEST_FIRST
    return AllocationPolicy.SMALLEST_FIRST


def new_state(
    fleet_spec: FleetSpec,
    variant: SimVariant,
    n: int = 3,
    reselect_period: float = WEEK_SECONDS,
) -> SimulationState:
    config = SchedulerConfig(
        n=n,
        current_policy=_variant_policy(variant),
        reselect_period=reselect_period,
    )
    machines = build_fleet(fleet_spec)
    if variant is SimVariant.BASELINE:
        index = sorted((-m.cores_free, m.machine_id) for m in machines)
    else:
        index = sorted((-m.free_list.free_bytes, m.machine_id) for m in machines)
    return SimulationState(
        variant, config, fleet_spec, machines, index, next_reselect=reselect_period,
        drained=variant is SimVariant.DYNAMIC,
    )


def step(state: SimulationState, event: VmEvent) -> VmRecord | None:
    """Apply one event and return the record of the VM it placed; None for a
    stop or a start that placed none. Events come in ``event_order``: one
    that sorts before the last event applied raises ``ValueError`` and
    changes nothing, while events of equal time and kind may come in any
    order. Unknown stops and duplicate starts are recorded as anomalies and
    change nothing."""
    time = event.time
    if time <= state.last_time and (
        time < state.last_time or state.last_start and event.kind is _STOP
    ):
        raise ValueError(f"the {event.kind.value} of vm {event.vm_id!r} at time {time} "
                         "sorts before the last event applied, out of event order")
    state.last_time = time
    state.last_start = event.kind is _START
    if state.variant is _DYNAMIC:
        if event.time >= state.next_reselect:
            # one reselection over the logged events, none for the empty
            # periods after it
            if state.log:
                chosen = reselect_option(
                    state.log, state.fleet_spec, state.config,
                    state.records if state.drained else None, state.challenger,
                    state.reselections,
                )
                state.config.current_policy = chosen
                state.option_switches.append((int(state.next_reselect), chosen.value))
                state.drained = not state.live
                state.challenger = None
            period = state.config.reselect_period
            state.next_reselect += ((event.time - state.next_reselect) // period + 1) * period
        state.log.append(event)
    if event.kind is _STOP:
        vm = state.live.pop(event.vm_id, None)
        if vm is not None:
            _release(state, event.vm_id, vm)
        elif event.vm_id in state.rejected:
            # a stop for a VM we rejected is expected; anything else is a
            # double stop or a stop for a VM never started
            state.rejected.discard(event.vm_id)
        else:
            state.anomalies += 1
        return None
    return _start_vm(state, event)


def _start_vm(state: SimulationState, event: VmEvent) -> VmRecord | None:
    """Place and grant a start in one frame. At its first grant, a baseline
    machine first gets its own copy of its shape's seed, outside the timed
    call. The latency is the allocator call's thread CPU time in seconds, the
    exact difference of two nanosecond readings divided once: at microsecond
    scale, wall time mostly measures OS preemption rather than the allocator.
    Automatic garbage collection is held off during the call, so a
    collection of the whole interpreter's heap is not charged to one grant.
    A scoring replay's grant is not timed, and its latency is 0.0."""
    if event.vm_id in state.live:
        state.anomalies += 1
        return None
    memory = event.memory_bytes
    if memory % PAGE_SIZE:  # whole pages, as both memory models grant them
        memory += PAGE_SIZE - memory % PAGE_SIZE
    policy = state.config.current_policy
    baseline = state.variant is _BASELINE
    if baseline:
        stop, segment = event.cores, 0
    else:
        stop = segment = memory
    machine, walked = fitting_machines(
        state.machines, state.index, event.cores, memory, stop, segment
    )
    if machine is None:
        if not walked:  # no machine fits: the start is rejected
            state.rejections += 1
            state.rejected.add(event.vm_id)
            return None
        # Machines fit, but none in one segment: the grant composes, and the
        # policies can differ from here on, so fork the challenger first.
        if state.drained and state.challenger is None:
            state.challenger = _fork(state, _OTHER[policy]), len(state.log) - 1, len(state.records)
        machine = state.machines[filter_min_segments(walked, memory, policy)]
    machine_id = machine.machine_id
    vm_id = event.vm_id
    memory_model = machine.free_list
    if state.untimed:  # a segment variant's: reselection never scores the baseline
        alloc = allocate(memory_model, vm_id, memory, policy)
        latency = 0.0
    else:
        if baseline and not isinstance(memory_model, BuddyAllocator):
            # the machine's first grant: its own copy of its shape's seed
            shape = memory_model.total_bytes, memory_model.reserved_bytes
            if shape not in state.seeds:
                state.seeds[shape] = BuddyAllocator(*shape)
            machine.free_list = memory_model = state.seeds[shape].copy(machine_id)
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            if baseline:
                t0 = _time.thread_time_ns()
                alloc = memory_model.allocate(vm_id, memory)
            else:
                t0 = _time.thread_time_ns()
                alloc = allocate(memory_model, vm_id, memory, policy)
            latency = (_time.thread_time_ns() - t0) / 1e9
        finally:
            if gc_was_on:
                gc.enable()
    # move the machine's index entry, keyed by the resource just taken
    index = state.index
    if baseline:
        old = machine.cores_free
        machine.cores_free = new = old - event.cores
    else:
        machine.cores_free -= event.cores
        new = memory_model.free_bytes
        old = new + memory
    del index[bisect.bisect_left(index, (-old, machine_id))]
    bisect.insort(index, (-new, machine_id))
    state.live[vm_id] = LiveVm(machine_id, alloc, event.cores)
    k = len(alloc.segments)
    mode = _DSN if k <= state.config.n else _FALLBACK
    record = VmRecord(vm_id, event.time, machine_id, k, mode, latency)
    state.records.append(record)
    return record


def _release(state: SimulationState, vm_id: str, vm: LiveVm) -> None:
    """Return a VM's memory, to either memory model, and its cores, and move
    its machine's placement-index entry; a stop and ``finish`` both release
    through here. A baseline VM's machine was granted from, so its memory
    model is a buddy allocator."""
    machine_id = vm.machine_id
    machine = state.machines[machine_id]
    index = state.index
    if state.variant is _BASELINE:
        machine.free_list.release(vm_id)
        old = machine.cores_free
        machine.cores_free = new = old + vm.cores
    else:
        memory_model = machine.free_list
        old = memory_model.free_bytes
        release(memory_model, vm.allocation)
        new = memory_model.free_bytes
        machine.cores_free += vm.cores
    del index[bisect.bisect_left(index, (-old, machine_id))]
    bisect.insort(index, (-new, machine_id))


def finish(state: SimulationState, seed: int = 0) -> SimulationReport:
    """Release still-running VMs (implicit stop at trace end) and build the
    report."""
    implicit = len(state.live)
    for vm_id in sorted(state.live):
        _release(state, vm_id, state.live[vm_id])
    state.live.clear()
    final_free = {m.machine_id: m.free_list.free_runs() for m in state.machines}
    return SimulationReport(
        variant=state.variant.value,
        n=state.config.n,
        seed=seed,
        machine_count=len(state.machines),
        start_count=len(state.records) + state.rejections,
        records=tuple(state.records),
        rejections=state.rejections,
        anomalies=state.anomalies,
        implicit_stops=implicit,
        option_switches=tuple(state.option_switches),
        final_free=final_free,
        reselections=tuple(state.reselections),
    )


def reselect_option(
    log: list[VmEvent],
    fleet_spec: FleetSpec,
    config: SchedulerConfig,
    records: list[VmRecord] | None = None,
    challenger: tuple[SimulationState, int, int] | None = None,
    reselections: list[Reselection] | None = None,
) -> AllocationPolicy:
    """Score both composition policies as replays of the log on a fresh fleet
    and adopt the one yielding more VMs with k <= n; ties prefer fewer total
    segments, then the current policy. The log is reset afterwards.

    The policies place and grant alike, all at k = 1, until a grant
    composes, so both scores count only the starts from the current
    policy's first composed grant on; without one the two tie and the
    current policy stays. ``challenger`` is the copy of the current
    policy's replay that ``_start_vm`` took just before that grant, under
    the other policy (``_fork``), with the grant's index in the log and in
    ``records``. It is replayed until the outcome is decided
    (``_outscores``).

    ``records`` and ``challenger`` come from the caller's dynamic replay of
    a period begun drained: a drained fleet equals a fresh one. Otherwise
    the current policy is replayed on a fresh fleet, as a dynamic replay
    that begins drained and never reselects, unless the log holds no more
    starts than H (``_may_compose``), the machines that could each host its
    largest start on an empty machine. With at most H starts no grant
    composes: at the i-th start (i < starts <= H) at most i machines have
    been granted to, so one of the H hosts is untouched and fits the start,
    and the walk returns the first fit whose largest free segment covers
    the demand. A log of no start is the case of 0 starts. Every replay here
    is untimed and drives ``step`` directly, without ``finish``, whose
    release of every live VM no score needs. How the period was scored is
    appended to ``reselections``.
    """
    current = config.current_policy
    record = Reselection("none" if records is None else "records", current.value)
    if records is None and _may_compose(log, fleet_spec):
        state = new_state(fleet_spec, _DYNAMIC, config.n)
        state.config.current_policy = current
        state.next_reselect = math.inf
        state.untimed = True
        for event in log:
            step(state, event)
        records, challenger = state.records, state.challenger
        record.origin, record.replay_steps = "replay", len(log)
    if challenger is not None:
        forked, record.fork, first = challenger
        ks = [r.k for r in records[first:]]
        record.score = sum(k <= config.n for k in ks), sum(ks)
        if _outscores(forked, log[record.fork:], record):
            record.chosen = _OTHER[current].value
    if reselections is not None:
        reselections.append(record)
    log.clear()
    return AllocationPolicy(record.chosen)


def _may_compose(log: list[VmEvent], fleet_spec: FleetSpec) -> bool:
    """Whether the log holds more starts than H, the machines of a fresh
    ``fleet_spec`` fleet with at least the most cores of any start and a user
    region covering the most memory of any; only then can its replay compose
    a grant (``reselect_option``). The scan stops once the starts counted
    exceed H for the largest start so far, which a larger one only lowers."""
    shapes = [
        (g.cores, new_machine(g.ram_bytes, fleet_spec.reserved_bytes).max_segment, count)
        for g, count in zip(fleet_spec.generations, generation_counts(fleet_spec))
        if count
    ]
    starts = cores = memory = hosts = 0
    for event in log:
        if event.kind is _START:
            starts += 1
            if event.cores > cores or event.memory_bytes > memory:
                cores = max(cores, event.cores)
                memory = max(memory, event.memory_bytes)
                # a region of whole pages covers the bytes if it covers them
                # rounded up to whole pages
                hosts = sum(count for machine_cores, region, count in shapes
                            if machine_cores >= cores and region >= memory)
            if starts > hosts:
                return True
    return False


def _fork(state: SimulationState, policy: AllocationPolicy) -> SimulationState:
    """An untimed copy of a segment replay's state under ``policy``, which
    shares no container with it and holds no log and no records. It keeps
    the last event's key, so it steps that event again, and never forks
    itself."""
    return replace(
        state,
        variant=SimVariant(policy.value),
        config=replace(state.config, current_policy=policy),
        machines=[replace(m, free_list=m.free_list.copy(m.machine_id)) for m in state.machines],
        index=list(state.index),
        seeds=dict(state.seeds),
        live=dict(state.live),
        rejected=set(state.rejected),
        log=[],
        records=[],
        option_switches=[],
        reselections=[],
        drained=False,
        untimed=True,
    )


def _outscores(state: SimulationState, events: list[VmEvent], record: Reselection) -> bool:
    """Whether the challenger, replayed from ``state`` over ``events`` (the
    first a start), ends with more VMs at k <= n than ``record.score``, or as
    many in fewer segments. Each start to come adds at most one VM at k <= n
    and each VM a segment, so it stops once that is decided, and its score
    there, recorded with the events it stepped, decides as its final one."""
    n = state.config.n
    dsn, total = record.score
    mine = segments = 0
    left = sum(e.kind is _START for e in events)
    for stepped, event in enumerate(events, 1):
        placed = step(state, event)
        if event.kind is _STOP:
            continue
        left -= 1
        if placed is not None:
            mine += placed.k <= n
            segments += placed.k
        reach = mine + left  # the most VMs at k <= n it can end with
        if mine > dsn or reach < dsn or not left or reach == dsn and segments + left >= total:
            break
    record.challenger_steps, record.challenger_score = stepped, (mine, segments)
    return mine > dsn or mine == dsn and segments < total


def run(
    events: list[VmEvent],
    fleet_spec: FleetSpec,
    variant: SimVariant,
    n: int = 3,
    seed: int = 0,
    reselect_period: float = WEEK_SECONDS,
) -> SimulationReport:
    """Replay a trace and return the measurement report.

    Rejected placements are counted, never retried. The seed is carried into
    the report so batch runs stay distinguishable; the replay itself is
    deterministic.
    """
    state = new_state(fleet_spec, variant, n, reselect_period)
    for event in event_order(events):
        step(state, event)
    return finish(state, seed)
