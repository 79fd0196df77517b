"""VM trace parsing, bootstorm derivation, synthetic generation, fleets.

The trace format is CSV with header ``vm_id,kind,time,cores,memory_bytes``.
Start rows carry all five fields; stop rows leave cores and memory empty.
Times are integer seconds of simulated time. Fleets are described by server
generations (RAM, cores, share of the fleet) in a small JSON file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from enum import Enum
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence, TextIO

from .scheduler import MachineView
from .segments import new_machine

TRACE_HEADER = ("vm_id", "kind", "time", "cores", "memory_bytes")
SNAPSHOT_HEADER = (
    "vm_id", "cores", "memory_bytes", "host_id", "host_ram_bytes", "host_cores",
)

GIB = 1 << 30


class TraceFormatError(ValueError):
    """A line of a trace, snapshot or counter file violates its format; the
    message names the file too when ``path`` is given."""

    def __init__(self, lineno: int, reason: str, path: str | Path | None = None):
        self.lineno, self.reason = lineno, reason
        super().__init__(f"line {lineno}: {reason}" if path is None else
                         f"{path}: line {lineno}: {reason}")


class EventKind(Enum):
    START = "start"
    STOP = "stop"


# parse_trace's lookup of a row's kind: an EventKind(...) call per row costs
# more than the row's own checks; the members, read once rather than through
# the class per event
_KINDS = {kind.value: kind for kind in EventKind}
_START = EventKind.START
_STOP = EventKind.STOP
# event_order's sort key, read in C rather than through a lambda per event
_by_time = attrgetter("time")
# The latest event time: below 2**53 every integer is exact as a float, so
# with a whole-second period the dynamic variant's reselection schedule lets
# no event reach a boundary early (one past 2**53 - 1 rounds to 2**53 or more).
MAX_TIME = (1 << 53) - 1


@dataclass(slots=True, init=False)
class VmEvent:
    """One trace event, held to the rules of a trace row: an integer time
    from 0 to ``MAX_TIME``; on a start, an integer count of at least one core
    and a positive integer memory demand; on a stop, neither.

    Slotted, so mutable and unhashable, but nothing mutates an instance: the
    caller's list, ``event_order``'s sorted copy and the dynamic variant's
    log share them. The constructor is written out, checks first, so that
    building an event runs one Python frame rather than the generated
    ``__init__`` and a ``__post_init__``."""

    vm_id: str
    kind: EventKind
    time: int
    cores: int | None
    memory_bytes: int | None

    def __init__(
        self,
        vm_id: str,
        kind: EventKind,
        time: int,
        cores: int | None = None,
        memory_bytes: int | None = None,
    ) -> None:
        if type(time) is not int:
            raise ValueError(f"time must be an integer, got {time!r}")
        if time < 0 or time > MAX_TIME:
            raise ValueError(f"negative time {time}" if time < 0 else "time must be below 2**53")
        if kind is _START:
            if type(cores) is not int or type(memory_bytes) is not int:
                raise ValueError(
                    f"a start needs integer cores and memory_bytes, "
                    f"got {cores!r} and {memory_bytes!r}"
                )
            if cores < 1:
                raise ValueError(f"cores must be >= 1, got {cores}")
            if memory_bytes <= 0:
                raise ValueError(f"memory_bytes must be positive, got {memory_bytes}")
        elif cores is not None or memory_bytes is not None:
            raise ValueError("a stop carries no cores or memory_bytes")
        self.vm_id = vm_id
        self.kind = kind
        self.time = time
        self.cores = cores
        self.memory_bytes = memory_bytes


def event_order(events: list[VmEvent]) -> list[VmEvent]:
    """Replay order: by time, stops before starts, then input order. The
    stops, then the starts, each in input order, are sorted stably by time
    alone, so the key is read in C rather than built per event."""
    ordered = [e for e in events if e.kind is _STOP]
    ordered += [e for e in events if e.kind is _START]
    ordered.sort(key=_by_time)
    return ordered


def start_event(vm_id: str, time: int, cores: int, memory_bytes: int) -> VmEvent:
    return VmEvent(vm_id, EventKind.START, time, cores, memory_bytes)


def stop_event(vm_id: str, time: int) -> VmEvent:
    return VmEvent(vm_id, EventKind.STOP, time)


def _field_int(row: list[str], idx: int, name: str, lineno: int) -> int:
    try:
        return int(row[idx])
    except (ValueError, IndexError):
        raise TraceFormatError(lineno, f"bad {name} in {row!r}") from None


def parse_trace(source: TextIO | str) -> list[VmEvent]:
    """Parse a trace, returning events sorted by time (stable for ties).

    The header row is optional on input; serialization always writes it. A VM
    may start again after its stop; a start while the VM is live, in replay
    order (by time, stops before starts, then input order), is rejected.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    events: list[VmEvent] = []
    lines: list[int] = []  # input line of each event
    started: set[str] = set()
    restarted: set[str] = set()
    # a record is numbered by the file line it begins on, one past the line
    # the previous record ended on: a quoted line break in a record moves the
    # next one's line past its count of records
    reader = csv.reader(source)
    lineno = 1
    for row in reader:
        if not row or (lineno == 1 and tuple(row) == TRACE_HEADER):
            lineno = reader.line_num + 1
            continue
        fields = len(row)
        if fields not in (3, 5):
            raise TraceFormatError(lineno, f"expected 3 or 5 fields, got {fields}")
        vm_id = row[0].strip()
        if not vm_id:
            raise TraceFormatError(lineno, "empty vm_id")
        kind = _KINDS.get(row[1]) or _KINDS.get(row[1].strip().lower())
        try:
            time = int(row[2])
        except ValueError:
            raise TraceFormatError(lineno, f"bad time in {row!r}") from None
        if kind is _START:
            if fields != 5:
                raise TraceFormatError(lineno, "start row needs cores and memory_bytes")
            try:
                cores = int(row[3])
            except ValueError:
                raise TraceFormatError(lineno, f"bad cores in {row!r}") from None
            try:
                memory_bytes = int(row[4])
            except ValueError:
                raise TraceFormatError(lineno, f"bad memory_bytes in {row!r}") from None
            if vm_id in started:
                restarted.add(vm_id)
            started.add(vm_id)
        elif kind is _STOP:
            if fields == 5 and (row[3].strip() or row[4].strip()):
                raise TraceFormatError(lineno, "stop row must leave cores and memory empty")
            cores = memory_bytes = None
        else:
            raise TraceFormatError(lineno, f"unknown event kind {row[1]!r}")
        try:
            events.append(VmEvent(vm_id, kind, time, cores, memory_bytes))
        except ValueError as exc:  # the event's own checks of its values
            raise TraceFormatError(lineno, str(exc)) from None
        lines.append(lineno)
        lineno = reader.line_num + 1
    if restarted:  # replay the VMs that start more than once
        live: set[str] = set()
        for event in event_order([e for e in events if e.vm_id in restarted]):
            if event.kind is _STOP:
                live.discard(event.vm_id)
            elif event.vm_id in live:
                lineno = lines[next(i for i, e in enumerate(events) if e is event)]
                raise TraceFormatError(lineno, f"duplicate start for vm {event.vm_id!r}")
            else:
                live.add(event.vm_id)
    events.sort(key=_by_time)
    return events


def csv_field(text: str) -> str:
    """``text`` as one CSV field that ``csv.reader`` reads back: unchanged
    unless it holds a comma, a quote or a line break, else quoted with its
    quotes doubled."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def serialize_trace(events: Iterable[VmEvent]) -> str:
    """Canonical trace text: header, one row per event, LF line endings,
    a vm_id quoted where CSV needs it."""
    lines = [",".join(TRACE_HEADER)]
    for e in events:
        if e.kind is _START:
            lines.append(f"{csv_field(e.vm_id)},start,{e.time},{e.cores},{e.memory_bytes}")
        else:
            lines.append(f"{csv_field(e.vm_id)},stop,{e.time},,")
    return "\n".join(lines) + "\n"


def read_utf8(
    path: str | Path, parse: Callable[[TextIO], Any], error: type[TraceFormatError]
) -> Any:
    """``parse`` a UTF-8 text file as it streams in. Its ``error``, or a byte
    that is not UTF-8, raises ``error`` with the file's path in the message."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return parse(fh)
    except error as exc:
        raise error(exc.lineno, exc.reason, path) from None
    except UnicodeDecodeError:
        data = Path(path).read_bytes()  # the stream's error places the byte in a chunk
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(data.count(b"\n", 0, exc.start) + 1, f"not UTF-8: {exc}", path) from None
        raise


def load_trace(path: str | Path) -> list[VmEvent]:
    return read_utf8(path, parse_trace, TraceFormatError)


def write_trace(events: Iterable[VmEvent], path: str | Path) -> None:
    Path(path).write_text(serialize_trace(events), encoding="utf-8")


@dataclass(frozen=True)
class SnapshotRecord:
    """One running VM captured from a live cluster."""

    vm_id: str
    cores: int
    memory_bytes: int


def parse_snapshot(source: TextIO | str) -> list[SnapshotRecord]:
    """Parse a snapshot. The header row is optional; each ``vm_id`` must be
    non-empty and unique. The host columns are validated, then dropped."""
    if isinstance(source, str):
        source = io.StringIO(source)
    records = []
    seen: set[str] = set()
    # a record is numbered by the file line it begins on, as in parse_trace
    reader = csv.reader(source)
    lineno = 1
    for row in reader:
        if row and (lineno > 1 or tuple(row) != SNAPSHOT_HEADER):
            if len(row) != 6:
                raise TraceFormatError(lineno, f"expected 6 fields, got {len(row)}")
            vm_id = row[0].strip()
            if not vm_id:
                raise TraceFormatError(lineno, "empty vm_id")
            if vm_id in seen:
                raise TraceFormatError(lineno, f"duplicate vm_id {vm_id!r}")
            seen.add(vm_id)
            sizes = [_field_int(row, i, SNAPSHOT_HEADER[i], lineno) for i in (1, 2, 4, 5)]
            if min(sizes) <= 0:
                raise TraceFormatError(lineno, "sizes must be positive")
            records.append(SnapshotRecord(vm_id, sizes[0], sizes[1]))
        lineno = reader.line_num + 1
    return records


def load_snapshot(path: str | Path) -> list[SnapshotRecord]:
    return read_utf8(path, parse_snapshot, TraceFormatError)


def derive_bootstorm(snapshot: Sequence[SnapshotRecord], horizon: int) -> list[VmEvent]:
    """All snapshot VMs start simultaneously at t=0 and stop at the horizon,
    which must be at least one second so that each stop follows its start."""
    if horizon < 1:
        raise ValueError(f"bootstorm horizon must be at least 1 s, got {horizon} s")
    ordered = sorted(snapshot, key=lambda r: r.vm_id)
    events = [start_event(r.vm_id, 0, r.cores, r.memory_bytes) for r in ordered]
    events += [stop_event(r.vm_id, horizon) for r in ordered]
    return events


@dataclass(frozen=True)
class Flavor:
    """A bookable VM shape. Weights are relative sampling frequencies."""

    memory_bytes: int
    cores: int
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0 or self.cores < 1 or self.weight < 0:
            raise ValueError(f"bad flavor {self}")


# Public-cloud style catalog: 14 bookable sizes, demand concentrated on the
# small ones. RAM per core grows with the flavor so memory fills before cores.
DEFAULT_FLAVORS = (
    Flavor(3 * GIB // 4, 1, 8),
    Flavor(1 * GIB, 1, 10),
    Flavor(7 * GIB // 4, 1, 10),
    Flavor(2 * GIB, 1, 12),
    Flavor(7 * GIB // 2, 1, 12),
    Flavor(4 * GIB, 1, 12),
    Flavor(7 * GIB, 1, 10),
    Flavor(8 * GIB, 1, 10),
    Flavor(14 * GIB, 2, 6),
    Flavor(16 * GIB, 2, 6),
    Flavor(28 * GIB, 4, 4),
    Flavor(32 * GIB, 4, 4),
    Flavor(56 * GIB, 8, 3),
    Flavor(64 * GIB, 8, 3),
)


# Each distribution kind: its parameter count, the test its parameters must
# pass, what the error says they need, and one draw given them and an rng.
_DISTRIBUTIONS = {
    "fixed": (1, lambda x: x >= 0, "one value >= 0", lambda x, rng: x),
    "uniform": (2, lambda lo, hi: 0 <= lo <= hi, "0 <= lo <= hi",
                lambda lo, hi, rng: rng.uniform(lo, hi)),
    "exponential": (1, lambda mean: mean > 0, "mean > 0",
                    lambda mean, rng: rng.expovariate(1.0 / mean)),
    "lognormal": (2, lambda median, sigma: median > 0 and sigma >= 0,
                  "median > 0 and sigma >= 0",
                  lambda median, sigma, rng: rng.lognormvariate(math.log(median), sigma)),
    "pareto": (2, lambda scale, alpha: scale > 0 and alpha > 0, "scale > 0 and alpha > 0",
               lambda scale, alpha, rng: scale * rng.paretovariate(alpha)),
}


class Distribution:
    """Sampling distribution for inter-arrival gaps and lifetimes (seconds).
    ``sample(rng)`` draws one value: the kind's draw with the parameters
    bound, so that a draw runs one Python frame."""

    def __init__(self, kind: str, *params: float):
        self.kind = kind
        self.params = params
        if not all(math.isfinite(p) for p in params):
            raise ValueError(f"{kind} distribution needs finite parameters: {params}")
        if kind not in _DISTRIBUTIONS:
            raise ValueError(f"unknown distribution kind {kind!r}")
        count, valid, needs, draw = _DISTRIBUTIONS[kind]
        if len(params) != count or not valid(*params):
            raise ValueError(f"{kind} distribution needs {needs}: {params}")
        self.sample = partial(draw, *self.params)

    @classmethod
    def exponential(cls, mean: float) -> "Distribution":
        return cls("exponential", mean)

    @classmethod
    def parse(cls, spec: str) -> "Distribution":
        """Parse `fixed:X`, `uniform:LO:HI`, `exp:MEAN`,
        `lognormal:MEDIAN:SIGMA` or `pareto:SCALE:ALPHA`."""
        parts = spec.split(":")
        kinds = {
            "fixed": "fixed", "uniform": "uniform", "exp": "exponential",
            "lognormal": "lognormal", "pareto": "pareto",
        }
        if parts[0] not in kinds:
            raise ValueError(f"unknown distribution spec {spec!r}")
        return cls(kinds[parts[0]], *(float(p) for p in parts[1:]))


# The most VMs a synthetic trace may hold, so that its memory stays bounded: a
# VM's two events take about 0.3 KB (3 GB at 10**7), and a replay 0.9 KB per VM.
MAX_VMS = 10**7


def gen_synthetic(
    vm_count: int,
    flavors: Sequence[Flavor],
    interarrival: Distribution,
    lifetime: Distribution | None,
    seed: int,
) -> list[VmEvent]:
    """Generate a reproducible trace of ``vm_count`` VMs.

    ``lifetime=None`` produces an arrival-only trace (no stop events). When
    vm_count >= len(flavors), every flavor appears at least once so the trace
    exhibits exactly len(flavors) distinct demand sizes.
    """
    if not 0 <= vm_count <= MAX_VMS:
        raise ValueError("vm_count must be between 0 and 10**7")
    if not flavors:
        raise ValueError("flavor set is empty")
    if sum(f.weight for f in flavors) <= 0:
        raise ValueError("flavor weights must not all be zero")
    rng = random.Random(seed)
    picks = rng.choices(range(len(flavors)), weights=[f.weight for f in flavors], k=vm_count)
    _force_flavor_coverage(picks, len(flavors), rng)
    width = max(5, len(str(max(vm_count - 1, 0))))
    events: list[VmEvent] = []
    arrival = 0.0
    try:
        for i, pick in enumerate(picks):
            arrival += interarrival.sample(rng)
            start = int(round(arrival))
            stop = start if lifetime is None else start + max(1, int(round(lifetime.sample(rng))))
            if stop > MAX_TIME:
                raise OverflowError("time must be below 2**53")
            flavor = flavors[pick]
            vm_id = f"vm{i:0{width}d}"
            events.append(start_event(vm_id, start, flavor.cores, flavor.memory_bytes))
            if lifetime is not None:
                events.append(stop_event(vm_id, stop))
    except OverflowError as exc:
        # a heavy tail or a huge parameter drew a time past MAX_TIME or
        # beyond any float
        raise ValueError(f"sampled time overflows: {exc}") from exc
    events.sort(key=_by_time)  # stable: ties keep generation order
    return events


def _force_flavor_coverage(picks: list[int], flavor_count: int, rng: random.Random) -> None:
    """Overwrite duplicated picks so each flavor index occurs at least once."""
    if len(picks) < flavor_count:
        return
    counts = [0] * flavor_count
    for p in picks:
        counts[p] += 1
    missing = [i for i, c in enumerate(counts) if c == 0]
    if not missing:
        return
    replaceable = [i for i, p in enumerate(picks) if counts[p] > 1]
    for flavor in missing:
        idx = replaceable.pop(rng.randrange(len(replaceable)))
        while counts[picks[idx]] <= 1:  # earlier overwrite made this pick unique
            idx = replaceable.pop(rng.randrange(len(replaceable)))
        counts[picks[idx]] -= 1
        counts[flavor] += 1
        picks[idx] = flavor


# The largest host and fleet a fleet spec may describe, so that a replay's
# memory stays bounded: a buddy seed holds about 72 B per 64 MiB block, 72 MB
# at 2**46 bytes (64 TiB), and a machine about 460 B, 460 MB at 10**6.
MAX_RAM_BYTES = 1 << 46
MAX_MACHINES = 10**6


@dataclass(frozen=True)
class Generation:
    """One server generation: its shape and its share of the fleet."""

    name: str
    ram_bytes: int
    cores: int
    proportion: float  # percent of the fleet

    def __post_init__(self) -> None:
        if self.ram_bytes > MAX_RAM_BYTES:
            raise ValueError(f"generation {self.name!r}: ram_bytes exceeds 2**46 (64 TiB)")
        if self.ram_bytes <= 0 or self.cores < 1 or self.proportion < 0:
            raise ValueError(f"bad generation {self}")


# Mixed datacenter fleet used as the default replay target: two recent server
# generations alongside three older ones, in equal shares.
DEFAULT_GENERATIONS = (
    Generation("HPC", 128 * GIB, 24, 20.0),
    Generation("Gen4", 192 * GIB, 24, 20.0),
    Generation("Gen5", 256 * GIB, 40, 20.0),
    Generation("Gen6", 192 * GIB, 48, 20.0),
    Generation("Godzilla", 512 * GIB, 32, 20.0),
)


@dataclass(frozen=True)
class FleetSpec:
    generations: tuple[Generation, ...]
    machine_count: int
    reserved_bytes: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.machine_count <= MAX_MACHINES:
            raise ValueError("machine_count must be between 1 and 10**6")
        if self.reserved_bytes < 0:
            raise ValueError("reserved_bytes must be >= 0")
        total = sum(g.proportion for g in self.generations)
        if not math.isclose(total, 100.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"generation proportions sum to {total}, expected 100")


def default_fleet_spec(machine_count: int, reserved_bytes: int = 0) -> FleetSpec:
    return FleetSpec(DEFAULT_GENERATIONS, machine_count, reserved_bytes)


def generation_counts(spec: FleetSpec) -> list[int]:
    """Machines per generation by largest-remainder rounding (ties follow
    listing order)."""
    exact = [spec.machine_count * g.proportion / 100.0 for g in spec.generations]
    counts = [int(math.floor(x)) for x in exact]
    leftover = spec.machine_count - sum(counts)
    remainders = sorted(
        range(len(exact)), key=lambda i: (-(exact[i] - counts[i]), i)
    )
    for i in remainders[:leftover]:
        counts[i] += 1
    return counts


def build_fleet(spec: FleetSpec) -> list[MachineView]:
    """Instantiate the fleet: machine ids count up through the generations in
    listing order. Each generation that gets machines builds one
    ``new_machine`` and copies it for each of them, so no two machines share
    a column."""
    machines: list[MachineView] = []
    for gen, count in zip(spec.generations, generation_counts(spec)):
        if count:
            template = new_machine(gen.ram_bytes, spec.reserved_bytes)
            for machine_id in range(len(machines), len(machines) + count):
                machines.append(MachineView(machine_id, gen.cores, template.copy(machine_id)))
    return machines


def _json_int(key: str, value: object) -> int:
    """A count or size: a JSON integer, never a float or a boolean."""
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def _json_number(key: str, value: object) -> float:
    """A share or weight: a JSON integer or float within float range, never
    a string, a boolean, NaN or an infinity."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise TypeError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def load_json_file(kind: str, path: str | Path, build: Callable[[Any], Any]) -> Any:
    """Parse a JSON input file and ``build`` a value from it. A byte that is
    not UTF-8, malformed JSON, a missing key, a value of the wrong type or
    too large for a float raise ``ValueError("bad <kind> <path>: ...")``; a
    file that cannot be read raises ``OSError``."""
    try:
        return build(json.loads(Path(path).read_text(encoding="utf-8")))
    except (KeyError, TypeError, OverflowError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"bad {kind} {path}: {exc}") from exc


def _fleet_spec(data: Any) -> FleetSpec:
    generations = tuple(
        Generation(
            g["name"], _json_int("ram_bytes", g["ram_bytes"]),
            _json_int("cores", g["cores"]),
            _json_number("proportion", g["proportion"]),
        )
        for g in data["generations"]
    )
    return FleetSpec(
        generations,
        _json_int("machine_count", data["machine_count"]),
        _json_int("reserved_bytes", data.get("reserved_bytes", 0)),
    )


def load_fleet_spec(path: str | Path) -> FleetSpec:
    """Read a fleet description from JSON.

    Schema: {"machine_count": int, "reserved_bytes": int (optional),
    "generations": [{"name", "ram_bytes", "cores", "proportion"}, ...]}.
    Counts and sizes must be JSON integers: 20.7, "20" or true is rejected,
    not truncated. Proportions must be finite JSON numbers.
    """
    return load_json_file("fleet spec", path, _fleet_spec)
