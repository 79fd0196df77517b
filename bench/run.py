"""Replay benchmark for dsegsim.

Usage, from the root of a checkout:

    python3 bench/run.py --workload wide|fragment --seed N --seconds S --trace 0|1

Generates the workload's seeded trace CSV and fleet JSON, then replays them
through the user-facing ``dsegsim replay`` entry point (``dsegsim.cli.main``
called in-process, ``--format json``) once per variant, checking every
report.json it produces. One process runs one workload, with no extra threads.

``--trace 0`` measures the end-to-end metrics: VM starts replayed per second
for each variant (median over the replays that fit in ``--seconds``),
set-up time (median of five set-ups) and peak RSS. Both times are host wall
times divided by a host-speed probe timed around each call and scaled to a
quiet reference host (see ``hostspeed.py``), so that a shared host's drift
does not read as a change in the program; the raw host-wall rate is printed
beside each.
``--trace 1`` replays each variant once untraced and once with the program's
layer functions wrapped by the tracer, and reports per-layer metrics; spans
are written to ``.bench_work/<workload>-<seed>/spans-<variant>.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` counts
replays and ``failed`` those that exited non-zero or failed a check.

The benchmark's own tests: ``PYTHONPATH=src python3 -m pytest -q bench``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXIT_NO_PROGRAM = 2


def load_program(root: Path = ROOT) -> None:
    """Make ``root/src/dsegsim`` importable; raise ImportError without it."""
    src = root / "src"
    if not (src / "dsegsim" / "__init__.py").is_file():
        raise ImportError(f"no dsegsim sources under {src}")
    sys.path.insert(0, str(src))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    from harness import Session, measure, trace_layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    session = Session(WORKLOADS[args.workload], args.seed, work)
    if args.trace:
        metrics = trace_layers(session)
    else:
        metrics = measure(session, args.seconds)
    for v, d in session.digests.items():
        print(f"digest {args.workload} {v} {d}")
    print(f"failed_share {session.failed / session.attempted:.4f} ratio "
          f"({session.failed} of {session.attempted} replays)")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
