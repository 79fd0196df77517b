"""Seeded benchmark inputs: a trace CSV and a fleet JSON per workload.

The program only ever sees these two files. Every workload draws all of its
randomness from the benchmark's ``--seed``, so one seed gives one input.

Traces are sized so that one replay takes at most a few seconds on a 2-core
host: a run then holds many replays per variant and reports their median.
Simulated time is scaled instead of cut, so each workload keeps the
behaviour it was chosen for.

- wide: the churn generator (exponential arrivals and lifetimes, one weekly
  reselection) on 200 machines of the default fleet, with few enough VMs
  that a replay stays short; machines hold fewer than one VM each on
  average. The O(machines x free segments) placement dry-run dominates;
  baseline skips it. Every opt1/opt2 grant is k = 1, so composition code
  does no work here.
- fragment: lognormal (heavy-tailed) lifetimes on core-rich 512 GiB machines
  where memory binds, so free lists grow long and grants compose, fall back
  to paging, or are rejected."""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from dsegsim.trace import (
    DEFAULT_FLAVORS,
    DEFAULT_GENERATIONS,
    Distribution,
    EventKind,
    VmEvent,
    gen_synthetic,
    start_event,
    stop_event,
    write_trace,
)

GIB = 1 << 30
WEEK_S = 7 * 24 * 3600


def weekly_churn(vms: int, seed: int) -> list[VmEvent]:
    """Exponential arrivals spanning just over one reselection week, with
    lifetimes 150 arrival gaps long: 150 live VMs at steady state."""
    gap = 1.06 * WEEK_S / vms
    return gen_synthetic(
        vms, DEFAULT_FLAVORS, Distribution.exponential(gap),
        Distribution.exponential(150 * gap), seed,
    )


def fragment_events(vms: int, seed: int) -> list[VmEvent]:
    """DEFAULT_FLAVORS weights, exponential arrivals (mean 680 s), lognormal
    lifetimes (median 20 000 s, sigma 1.5).

    On two 512 GiB machines this fills memory to the same share as arrivals
    every 170 s on eight, with the same VMs per machine, but reaches that
    fill, and the rejections it brings, in a quarter of the arrivals.
    """
    rng = random.Random(seed)
    picks = rng.choices(DEFAULT_FLAVORS, weights=[f.weight for f in DEFAULT_FLAVORS], k=vms)
    keyed = []
    clock = 0.0
    for i, flavor in enumerate(picks):
        clock += rng.expovariate(1 / 680)
        start = round(clock)
        stop = start + max(1, round(rng.lognormvariate(math.log(20_000), 1.5)))
        vm_id = f"vm{i:05d}"
        keyed.append((start, 2 * i, start_event(vm_id, start, flavor.cores, flavor.memory_bytes)))
        keyed.append((stop, 2 * i + 1, stop_event(vm_id, stop)))
    keyed.sort(key=lambda item: item[:2])
    return [event for _, _, event in keyed]


def default_fleet(machines: int) -> dict:
    return {
        "machine_count": machines,
        "reserved_bytes": 0,
        "generations": [
            {"name": g.name, "ram_bytes": g.ram_bytes, "cores": g.cores,
             "proportion": g.proportion}
            for g in DEFAULT_GENERATIONS
        ],
    }


def core_rich_fleet() -> dict:
    """One generation of 512 GiB x 256 cores: memory binds, not cores."""
    return {
        "machine_count": 2,
        "reserved_bytes": 0,
        "generations": [
            {"name": "core-rich", "ram_bytes": 512 * GIB, "cores": 256, "proportion": 100.0}
        ],
    }


def user_regions(fleet: dict) -> dict[str, list[list[int]]]:
    """Each machine's whole user region as a one-span free list, keyed like
    ``final_free`` in report.json. Ids count up through the generations in
    listing order; the benchmark's fleets split evenly, so no rounding."""
    regions = {}
    machine_id = 0
    for g in fleet["generations"]:
        share = fleet["machine_count"] * g["proportion"] / 100
        if share != int(share):
            raise ValueError(f"generation {g['name']} does not split the fleet evenly")
        for _ in range(int(share)):
            regions[str(machine_id)] = [[fleet["reserved_bytes"], g["ram_bytes"]]]
            machine_id += 1
    return regions


@dataclass(frozen=True)
class Workload:
    name: str
    vms: int
    generate: Callable[[int, int], list[VmEvent]]
    fleet: dict

    def write_inputs(self, seed: int, work: Path) -> tuple[Path, Path, int]:
        """Generate the seeded trace; write trace.csv and fleet.json under
        ``work``. Returns both paths and the number of start events."""
        events = self.generate(self.vms, seed)
        work.mkdir(parents=True, exist_ok=True)
        trace, fleet = work / "trace.csv", work / "fleet.json"
        write_trace(events, trace)
        fleet.write_text(json.dumps(self.fleet, indent=2) + "\n", encoding="utf-8")
        return trace, fleet, sum(1 for e in events if e.kind is EventKind.START)


WORKLOADS = {
    "wide": Workload("wide", 300, weekly_churn, default_fleet(200)),
    "fragment": Workload("fragment", 3_000, fragment_events, core_rich_fleet()),
}
