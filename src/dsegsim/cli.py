"""Command-line front end.

A run builds the parser of the command it names first, and no other, since
each costs about as much as parsing a short argv; with no command, ``--help``
or an unknown command it builds every command's. Usage and errors read the
same either way.

Exit codes: 0 success, 2 usage or configuration error, 3 input parse error
or an input that cannot be read or output that cannot be written, 4
simulation anomaly threshold exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import engine, report
from .mmu import (
    DsnRegisterFile,
    DsnViolation,
    WalkMode,
    load_counters,
    translate_gpa,
    virtualization_cost,
)
from .scheduler import SimVariant
from .trace import (
    DEFAULT_FLAVORS,
    Distribution,
    Flavor,
    TraceFormatError,
    _json_int,
    _json_number,
    derive_bootstorm,
    gen_synthetic,
    load_fleet_spec,
    load_json_file,
    load_snapshot,
    load_trace,
    write_trace,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_ANOMALIES = 4


def _sim_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--fleet", required=True, help="fleet spec JSON")
    sub.add_argument(
        "--variant",
        choices=[v.value for v in SimVariant],
        default=SimVariant.DYNAMIC.value,
        help="scheduler/allocator combination to replay",
    )
    sub.add_argument("--n", type=int, default=3,
                     help="segment threshold for register-file translation")
    sub.add_argument("--seed", type=int, default=0, help="seed recorded in the report")
    sub.add_argument("--period-hours", type=float, default=168.0,
                     help="allocation-option reselection period (dynamic variant)")
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--format", choices=["csv", "json", "plotdata"], default="json")
    sub.add_argument("--max-anomalies", type=int, default=0,
                     help="fail (exit 4) when the replay records more anomalies")


# every command, in the order that --help lists them
COMMANDS = ("replay", "bootstorm", "gen-trace", "translate", "costmodel")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser, with every command or with ``command``'s
    alone; both parse and print the same for an argv that names ``command``
    first."""
    parser = argparse.ArgumentParser(
        prog="dsegsim",
        description="Replay datacenter VM traces against segment-based memory "
        "allocation and report segment counts, latencies, and translation costs.",
    )
    # the one-command parser's usage still names every command
    subs = parser.add_subparsers(
        dest="command",
        required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}",
    )

    if command in (None, "replay"):
        replay = subs.add_parser("replay", help="replay a start/stop trace")
        replay.add_argument("--trace", required=True, help="trace CSV")
        _sim_flags(replay)

    if command in (None, "bootstorm"):
        storm = subs.add_parser("bootstorm", help="start all snapshot VMs at once")
        storm.add_argument("--snapshot", required=True, help="snapshot CSV")
        storm.add_argument("--horizon-hours", type=float, default=1.0,
                           help="simulated hours before the bootstormed VMs stop")
        _sim_flags(storm)

    if command in (None, "gen-trace"):
        gen = subs.add_parser("gen-trace", help="generate a synthetic trace")
        gen.add_argument("--vms", type=int, required=True)
        gen.add_argument("--flavors", help="flavor JSON; omit for the built-in catalog")
        gen.add_argument("--arrival", default="exp:100",
                         help="inter-arrival gap: fixed:X | uniform:LO:HI | exp:MEAN | "
                         "lognormal:MEDIAN:SIGMA | pareto:SCALE:ALPHA")
        gen.add_argument("--lifetime", default="exp:36000",
                         help="VM lifetime: as --arrival, or `none` for arrival-only")
        gen.add_argument("--seed", type=int, default=0)
        gen.add_argument("--out", required=True, help="trace CSV to write")

    if command in (None, "translate"):
        trans = subs.add_parser("translate", help="translate one guest physical address")
        trans.add_argument("--registers", required=True, help="register file JSON")
        trans.add_argument("--gpa", required=True, help="guest physical address (0x.. ok)")

    if command in (None, "costmodel"):
        cost = subs.add_parser("costmodel", help="print the virtualization cost breakdown")
        cost.add_argument("--counters", required=True, help="workload counter file")
        cost.add_argument("--mode", choices=[m.value for m in WalkMode], required=True)

    return parser


def _load_registers(path: str) -> DsnRegisterFile:
    """Read a register file; ``n``, every boundary and base, and ``limit``
    must be JSON integers."""
    return load_json_file("register file", path, lambda data: DsnRegisterFile(
        n=_json_int("n", data["n"]),
        gb=tuple(_json_int("gb", x) for x in data["gb"]),
        hb=tuple(_json_int("hb", x) for x in data["hb"]),
        limit=_json_int("limit", data["limit"]),
    ))


def _load_flavors(path: str | None) -> tuple[Flavor, ...]:
    """Read a flavor file; ``memory_bytes`` and ``cores`` must be JSON
    integers and ``weight`` a finite JSON number."""
    if path is None:
        return DEFAULT_FLAVORS
    return load_json_file("flavor file", path, lambda data: tuple(
        Flavor(
            _json_int("memory_bytes", f["memory_bytes"]),
            _json_int("cores", f["cores"]),
            _json_number("weight", f.get("weight", 1.0)),
        )
        for f in data
    ))


def _run_and_emit(events, args) -> int:
    if args.max_anomalies < 0:
        raise ValueError(f"--max-anomalies must be >= 0, got {args.max_anomalies}")
    fleet = load_fleet_spec(args.fleet)
    result = engine.run(
        events,
        fleet,
        SimVariant(args.variant),
        n=args.n,
        seed=args.seed,
        reselect_period=args.period_hours * 3600.0,
    )
    try:
        files = report.emit(result, args.format, args.out)
    except OSError as exc:
        return _unwritable(exc)
    hist = report.segment_histogram(result)
    print(
        f"placed {result.placed}/{result.start_count} VMs "
        f"({result.rejections} rejected, {result.anomalies} anomalies); "
        f"pct_1={report.format_pct(hist.pct_1)}"
    )
    for path in files:
        print(f"wrote {path}")
    if result.anomalies > args.max_anomalies:
        print(
            f"error: {result.anomalies} anomalies exceed the threshold "
            f"{args.max_anomalies}",
            file=sys.stderr,
        )
        return EXIT_ANOMALIES
    return EXIT_OK


def _unwritable(exc: OSError) -> int:
    print(f"error: cannot write output: {exc}", file=sys.stderr)
    return EXIT_PARSE


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            return _run_and_emit(load_trace(args.trace), args)
        if args.command == "bootstorm":
            snapshot = load_snapshot(args.snapshot)
            horizon = args.horizon_hours * 3600
            if not math.isfinite(horizon):
                raise ValueError(f"bootstorm horizon must be a finite number of "
                                 f"seconds, got {args.horizon_hours} h")
            events = derive_bootstorm(snapshot, int(horizon))
            return _run_and_emit(events, args)
        if args.command == "gen-trace":
            lifetime = (
                None if args.lifetime == "none" else Distribution.parse(args.lifetime)
            )
            events = gen_synthetic(
                args.vms,
                _load_flavors(args.flavors),
                Distribution.parse(args.arrival),
                lifetime,
                args.seed,
            )
            try:
                write_trace(events, args.out)
            except OSError as exc:
                return _unwritable(exc)
            print(f"wrote {args.out} ({len(events)} events)")
            return EXIT_OK
        if args.command == "translate":
            regs = _load_registers(args.registers)
            try:
                hpa = translate_gpa(regs, int(args.gpa, 0))
            except DsnViolation as exc:
                print(f"violation: {exc}")
                return EXIT_OK
            print(f"hpa {hpa:#x}")
            return EXIT_OK
        counters = load_counters(args.counters)  # costmodel, the one command left
        breakdown = virtualization_cost(WalkMode(args.mode), counters)
        print(json.dumps(breakdown.as_dict(), indent=2))
        return EXIT_OK
    except TraceFormatError as exc:  # a counter file's CounterFormatError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
