"""Replays, checks and measurements for one workload and seed."""

from __future__ import annotations

import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from dsegsim import cli

from checks import Expected, check_report, check_translation, digest
import hostspeed
from layers import Probe, metric_units
from tracer import patched
from workloads import Workload, user_regions

VARIANTS = ("baseline", "opt1", "opt2", "dynamic")
N = 3  # segment threshold for register-file translation (the CLI default)
SETUPS = 5
ROUND_S = 1.0
WARMUP_VARIANT = "opt2"


@dataclass
class Session:
    """One workload and seed: its inputs, its replays and their outcomes."""

    workload: Workload
    seed: int
    work: Path
    trace: Path | None = None
    fleet: Path | None = None
    start_count: int = 0
    attempted: int = 0
    failed: int = 0
    digests: dict[str, str] = field(default_factory=dict)

    def setup(self) -> float:
        """Generate and write the inputs, then run one warm-up replay;
        returns the seconds taken."""
        t0 = time.perf_counter()
        self.trace, self.fleet, self.start_count = self.workload.write_inputs(
            self.seed, self.work
        )
        written = time.perf_counter() - t0
        wall, _ = self.replay(WARMUP_VARIANT)
        return written + wall

    def replay(self, variant: str) -> tuple[float, dict | None]:
        """Run ``dsegsim replay`` once and check its report; returns the wall
        time of the CLI call and the parsed report.json (None on failure)."""
        out = self.work / f"out-{variant}"
        argv = [
            "replay", "--trace", str(self.trace), "--fleet", str(self.fleet),
            "--variant", variant, "--n", str(N), "--seed", str(self.seed),
            "--out", str(out), "--format", "json",
        ]
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except (Exception, SystemExit):
            wall = time.perf_counter() - t0
            self.fail(variant, [traceback.format_exc()])
            return wall, None
        wall = time.perf_counter() - t0
        if code != 0:
            self.fail(variant, [f"exit code {code}"])
            return wall, None
        try:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            problems = self.check(variant, report)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.fail(variant, [f"unreadable report.json: {exc!r}"])
            return wall, None
        if problems:
            self.fail(variant, problems)
        return wall, report

    def check(self, variant: str, report: dict) -> list[str]:
        expected = Expected(variant, N, self.start_count, user_regions(self.workload.fleet))
        problems = check_report(report, expected)
        d = digest(report)
        first = self.digests.setdefault(variant, d)
        if d != first:
            problems.append(f"digest {d} differs from this run's earlier {first}")
        return problems

    def fail(self, variant: str, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems:
            print(f"FAIL {self.workload.name} {variant}: {problem}", file=sys.stderr)


class Normaliser:
    """Times the host-speed probe between timed calls and turns each call's
    wall time into seconds at the reference host speed (see hostspeed)."""

    def __init__(self) -> None:
        self.last = hostspeed.probe()

    def __call__(self, wall: float) -> float:
        before, self.last = self.last, hostspeed.probe()
        return wall / ((before + self.last) / 2) * hostspeed.REFERENCE_S


def measure(session: Session, seconds: float) -> dict[str, dict]:
    """End-to-end metrics, tracing off.

    Every timed call sits between two runs of the host-speed probe, and the
    metrics are medians of the calls' normalised times: the host's drift
    cancels, a change in the program's speed does not."""
    normalise = Normaliser()
    setups = [normalise(session.setup()) for _ in range(SETUPS)]
    walls: dict[str, list[float]] = {v: [] for v in VARIANTS}
    normed: dict[str, list[float]] = {v: [] for v in VARIANTS}
    began = time.perf_counter()
    while True:
        # Whole rounds only, so every variant sees the same stretch of the
        # run; in a round each variant replays for at least ROUND_S, so a
        # fast variant gets as many samples as a slow one gets seconds.
        round_began = time.perf_counter()
        for v in VARIANTS:
            spent = 0.0
            while spent < ROUND_S:
                wall = session.replay(v)[0]
                walls[v].append(wall)
                normed[v].append(normalise(wall))
                spent += wall
        now = time.perf_counter()
        if now - began + (now - round_began) > seconds:
            break
    metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
    for v in VARIANTS:
        rate = session.start_count / statistics.median(normed[v])
        metrics[f"starts_per_s.{v}"] = {"value": rate, "unit": "starts/s"}
        print(f"{session.workload.name} {v}: {rate:.1f} starts/s at reference speed, "
              f"{session.start_count / statistics.median(walls[v]):.1f} starts/s host wall; "
              f"medians of {len(walls[v])} replays")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": rss_kib / 1024, "unit": "MiB"}
    return metrics


def trace_layers(session: Session) -> dict[str, dict]:
    """Per-layer metrics from one untraced and one traced replay per variant."""
    session.setup()
    values: dict[str, float] = {}
    probes = {}
    for v in VARIANTS:
        plain_wall, plain = session.replay(v)
        probe = probes[v] = Probe(N)
        violations = 0
        problems: list[str] = []
        with patched(probe.tracer, probe.targets()):
            traced_wall, traced = session.replay(v)
            for allocation, demand in probe.captured:
                if allocation.k <= N:
                    found, raised = check_translation(allocation, demand, N)
                    problems += found
                    violations += raised
        if problems:
            session.fail(v, problems[:10])
        if plain is None or traced is None:
            continue
        values.update(probe.metrics(v, plain, traced_wall / plain_wall, violations))
    for v, probe in probes.items():
        probe.tracer.write_csv(session.work / f"spans-{v}.csv")
    units = metric_units(VARIANTS)
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
