"""Aggregation of simulation output into the evaluation artifacts.

Produces the per-cloud segment histogram, allocation-latency statistics,
allocation frequency and demand-size CDF, and serializes them as CSV, JSON,
or plot-ready whitespace columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

from .segments import VmMode
from .trace import EventKind, FleetSpec, VmEvent, csv_field

# One report.json record as json.dumps writes it, but for the latency and its
# closing brace: VmRecord's fields in declaration order, each string through
# json's ASCII string encoder; a mode is one of VmMode's values, encoded once.
_RECORD_JSON = '{"vm_id": %s, "time": %d, "machine_id": %d, "k": %d, "mode": %s, "alloc_latency": '
_MODE_JSON = {mode.value: encode_basestring_ascii(mode.value) for mode in VmMode}


@dataclass(slots=True)
class VmRecord:
    """Outcome of one placed VM.

    Slotted, so mutable and unhashable, but nothing mutates an instance: a
    replay's record list, the report's tuple and a forked replay's copy of
    the list share them."""

    vm_id: str
    time: int
    machine_id: int
    k: int
    mode: str
    alloc_latency: float  # seconds, thread CPU time of the allocator call


@dataclass
class Reselection:
    """How one reselection of the dynamic variant scored its period. A score is
    (VMs at k <= n, segments) from the fork on; the challenger's, where its
    replay stopped, wins if higher, or equal in fewer segments."""

    origin: str  # of the current policy's score: "records", "replay" or "none"
    chosen: str  # the policy chosen, "opt1" or "opt2"
    fork: int | None = None  # log index of the period's first composed start
    replay_steps: int = 0  # events the current policy's fresh replay stepped
    challenger_steps: int = 0  # events the challenger's replay stepped
    score: tuple[int, int] | None = None
    challenger_score: tuple[int, int] | None = None


@dataclass(frozen=True)
class SimulationReport:
    variant: str
    n: int
    seed: int
    machine_count: int
    start_count: int
    records: tuple[VmRecord, ...]
    rejections: int
    anomalies: int
    implicit_stops: int
    option_switches: tuple[tuple[int, str], ...]
    final_free: dict[int, tuple[tuple[int, int], ...]]
    reselections: tuple[Reselection, ...] = ()  # one per option switch

    @property
    def placed(self) -> int:
        return len(self.records)

    def latencies_ms(self) -> list[float]:
        return [r.alloc_latency * 1000.0 for r in self.records]

    def core(self) -> dict:
        """The answers: all but the measured latencies and ``reselections``,
        how each choice was scored, so that scoring alone moves no digest."""
        return {
            "variant": self.variant,
            "n": self.n,
            "seed": self.seed,
            "machine_count": self.machine_count,
            "start_count": self.start_count,
            "records": [
                (r.vm_id, r.time, r.machine_id, r.k, r.mode) for r in self.records
            ],
            "rejections": self.rejections,
            "anomalies": self.anomalies,
            "implicit_stops": self.implicit_stops,
            "option_switches": list(self.option_switches),
            "final_free": {str(m): list(v) for m, v in sorted(self.final_free.items())},
        }


@dataclass(frozen=True)
class SegmentHistogram:
    """Share of placed VMs by granted segment count."""

    pct_1: float
    pct_2: float
    pct_3: float
    pct_gt3: float
    empty: bool = False

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.pct_1, self.pct_2, self.pct_3, self.pct_gt3)


def segment_histogram(report: SimulationReport) -> SegmentHistogram:
    if not report.records:
        return SegmentHistogram(0.0, 0.0, 0.0, 0.0, empty=True)
    ks = [r.k for r in report.records]
    total = len(ks)
    ones, twos, threes = ks.count(1), ks.count(2), ks.count(3)
    buckets = (ones, twos, threes, total - ones - twos - threes)
    # b * 100 stays an exact float, so an all-ones report yields exactly 100.0
    return SegmentHistogram(*(b * 100.0 / total for b in buckets))


def latency_stats(samples: Sequence[float]) -> tuple[float, float] | None:
    """Arithmetic mean and population standard deviation, None when empty.

    Finite samples give finite results, as exact as two float passes allow.
    Samples whose largest magnitude is past 2^255 or under 2^-256, where a
    square could leave float range or lose its digits, are scaled by a power
    of two to below 1 first, which is exact, and the results scaled back. A
    NaN or infinite sample makes the deviation NaN."""
    if not samples:
        return None
    n = len(samples)
    exp = math.frexp(max(map(abs, samples)))[1]
    if -256 < exp < 256:
        mean = sum(samples) / n
        return mean, math.sqrt(sum((x - mean) ** 2 for x in samples) / n)
    scaled = [math.ldexp(x, -exp) for x in samples]
    mean = sum(scaled) / n
    stdev = math.sqrt(sum((y - mean) ** 2 for y in scaled) / n)
    return math.ldexp(mean, exp), math.ldexp(stdev, exp)


def alloc_frequency(events: Sequence[VmEvent], fleet: FleetSpec) -> float | None:
    """Start events per hour per server over the trace's time span.

    Returns 0 for a trace without starts and None (flagged) when starts exist
    but the span is zero.
    """
    starts = sum(1 for e in events if e.kind is EventKind.START)
    if starts == 0:
        return 0.0
    span = max(e.time for e in events) - min(e.time for e in events)
    if span <= 0:
        return None
    return starts / (span / 3600.0) / fleet.machine_count


def demand_size_cdf(events: Sequence[VmEvent]) -> tuple[tuple[int, float], ...]:
    """(size, cumulative fraction) for each distinct start demand, ascending."""
    sizes = sorted(e.memory_bytes for e in events if e.kind is EventKind.START)
    total = len(sizes)
    points: list[tuple[int, float]] = []
    seen = 0
    for i, size in enumerate(sizes):
        seen += 1
        if i + 1 == total or sizes[i + 1] != size:
            points.append((size, seen / total))
    return tuple(points)


def format_pct(value: float) -> str:
    """Histogram percentage formatting: three decimals, scientific below 1e-3."""
    if value == 0:
        return "0"
    if value < 1e-3:
        return f"{value:.2E}"
    text = f"{value:.3f}".rstrip("0").rstrip(".")
    return text


def summary_dict(report: SimulationReport) -> dict:
    hist = segment_histogram(report)
    stats = latency_stats(report.latencies_ms())
    return {
        "variant": report.variant,
        "n": report.n,
        "seed": report.seed,
        "machine_count": report.machine_count,
        "start_count": report.start_count,
        "placed": report.placed,
        "rejections": report.rejections,
        "anomalies": report.anomalies,
        "implicit_stops": report.implicit_stops,
        "segment_histogram": {
            "pct_1": hist.pct_1,
            "pct_2": hist.pct_2,
            "pct_3": hist.pct_3,
            "pct_gt3": hist.pct_gt3,
            "empty": hist.empty,
        },
        "alloc_latency_ms": None if stats is None else {"mean": stats[0], "stdev": stats[1]},
        "option_switches": list(report.option_switches),
    }


def emit(report: SimulationReport, fmt: str, out_dir: str | Path) -> list[Path]:
    """Write the report under ``out_dir``; returns the files written.

    csv: records.csv, histogram.csv, summary.csv
    json: report.json
    plotdata: histogram.dat (whitespace columns, `#` header comment)
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        # json.dumps of the summary, then of the records, final_free and
        # reselections under their keys, written into the summary's object
        summary = summary_dict(report)
        stats = summary["alloc_latency_ms"]
        # %r writes a float as json does unless it is NaN or infinite, and
        # the latencies' mean is finite only when every latency is
        finite = stats is None or math.isfinite(stats["mean"])
        template = _RECORD_JSON + ("%r}" if finite else "%s}")
        encode, modes = encode_basestring_ascii, _MODE_JSON
        records = ", ".join([
            template % (
                encode(r.vm_id), r.time, r.machine_id, r.k, modes[r.mode],
                r.alloc_latency if finite else json.dumps(r.alloc_latency),
            )
            for r in report.records
        ])
        final_free = {str(m): spans for m, spans in sorted(report.final_free.items())}
        reselections = [{"origin": r.origin, "chosen": r.chosen, "fork": r.fork,
                         "replay_steps": r.replay_steps, "challenger_steps": r.challenger_steps,
                         "score": r.score, "challenger_score": r.challenger_score}
                        for r in report.reselections]
        files = {"report.json": f'{json.dumps(summary)[:-1]}, "records": [{records}], '
                                f'"final_free": {json.dumps(final_free)}, '
                                f'"reselections": {json.dumps(reselections)}}}\n'}
    elif fmt == "csv":
        lines = ["vm_id,time,machine_id,k,mode,alloc_latency_ms"]
        lines += [
            f"{csv_field(r.vm_id)},{r.time},{r.machine_id},{r.k},{r.mode},"
            f"{r.alloc_latency * 1000.0!r}"
            for r in report.records
        ]
        hist = segment_histogram(report)
        stats = latency_stats(report.latencies_ms())
        mean, stdev = stats if stats is not None else (float("nan"), float("nan"))
        files = {
            "records.csv": "\n".join(lines) + "\n",
            "histogram.csv": "pct_1,pct_2,pct_3,pct_gt3\n"
            + ",".join(format_pct(v) for v in hist.as_tuple()) + "\n",
            "summary.csv": "variant,n,seed,start_count,placed,rejections,anomalies,"
            "latency_mean_ms,latency_stdev_ms\n"
            f"{report.variant},{report.n},{report.seed},{report.start_count},"
            f"{report.placed},{report.rejections},{report.anomalies},"
            f"{mean!r},{stdev!r}\n",
        }
    elif fmt == "plotdata":
        hist = segment_histogram(report)
        lines = ["# segments percent_of_placed_vms (bucket 4 aggregates k > 3)"]
        lines += [f"{i + 1} {format_pct(v)}" for i, v in enumerate(hist.as_tuple())]
        files = {"histogram.dat": "\n".join(lines) + "\n"}
    else:
        raise ValueError(f"unknown format {fmt!r}")
    written = [out / name for name in files]
    for path, text in zip(written, files.values()):
        path.write_text(text, encoding="utf-8")
    return written
