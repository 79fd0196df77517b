"""Print a seeded matrix of replay digests, to compare two versions of the
engine's output.

Run from the repository root, with the ``dsegsim`` package to check on the
path::

    PYTHONPATH=src python tools/digests.py

Each cell replays one trace under one variant and prints one line
``core <cell> <variant> <digest>``, a hash of the report's ``core()``: equal
lines mean the same simulated outcome. A dynamic cell also prints
``reselections <cell> dynamic <digest>``, a hash of how each reselection
scored its period, which may change while ``core()`` stays. The cells are
the traces of ``episodic_fleet_and_trace`` (``tests/oracle.py``), under the
three segment variants and, one trace in eight, the slow baseline; and the
1000-VM seed-11 synthetic trace on 10 and on 1000 default machines under
the dynamic variant every 6 h.

Then come coverage counts over all cells: composed grants, challengers
forked by the dynamic replay itself (a period begun drained) and by a fresh
scorer (a period begun with VMs live), and dynamic cells whose reselections
chose both policies. The exit status is 1 if any count is 0, since the
matrix would then no longer exercise what it is meant to compare.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
import time
from pathlib import Path

from dsegsim.engine import run
from dsegsim.scheduler import SimVariant
from dsegsim.trace import DEFAULT_FLAVORS, Distribution, default_fleet_spec, gen_synthetic

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracle import episodic_fleet_and_trace  # noqa: E402

SEED = 58
TRACES = 400
BASELINE_EVERY = 8
SCALE_MACHINES = (10, 1000)
SCALE_PERIOD = 6 * 3600.0


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cells():
    """(name, events, fleet spec, variant, n, period) of every cell."""
    rng = random.Random(SEED)
    for trace in range(TRACES):
        spec, events, n, period = episodic_fleet_and_trace(rng)
        for variant in SimVariant:
            if variant is not SimVariant.BASELINE or trace % BASELINE_EVERY == 0:
                yield f"episodic-{trace:03d}", events, spec, variant, n, period
    events = gen_synthetic(1000, DEFAULT_FLAVORS, Distribution.parse("exp:100"),
                           Distribution.parse("exp:36000"), 11)
    for machines in SCALE_MACHINES:
        yield (f"scale-{machines}", events, default_fleet_spec(machines), SimVariant.DYNAMIC,
               3, SCALE_PERIOD)


def main() -> int:
    began = time.perf_counter()
    coverage = dict.fromkeys(("composed_grants", "forks_by_dynamic_replay",
                              "forks_by_fresh_scorer", "cells_choosing_both"), 0)
    for count, (name, events, spec, variant, n, period) in enumerate(cells(), 1):
        report = run(events, spec, variant, n, reselect_period=period)
        print(f"core {name} {variant.value} {digest(report.core())}")
        coverage["composed_grants"] += sum(r.k > 1 for r in report.records)
        if variant is SimVariant.DYNAMIC:
            reselections = [dataclasses.asdict(r) for r in report.reselections]
            print(f"reselections {name} dynamic {digest(reselections)}")
            for r in report.reselections:
                if r.fork is not None:
                    coverage["forks_by_dynamic_replay"] += r.origin == "records"
                    coverage["forks_by_fresh_scorer"] += r.origin == "replay"
            chosen = {policy for _, policy in report.option_switches}
            coverage["cells_choosing_both"] += chosen >= {"opt1", "opt2"}
    for key, value in coverage.items():
        print(f"coverage {key} {value}")
    print(f"{count} cells in {time.perf_counter() - began:.1f} s", file=sys.stderr)
    return 0 if all(coverage.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
