"""Which program attributes the traced run wraps, the counts it takes at
each boundary, and the per-layer metrics derived from them.

Span names are ``<module>.<function>`` of the module that defines the
function, whichever namespace the call went through. Spans nested under
``scheduler.reselect_option`` (its internal replay calls the same scheduler
and segment functions) count toward those layers as well.
"""

from __future__ import annotations

import math

from dsegsim import cli, engine, mmu, report, scheduler, trace
from dsegsim.baseline import BuddyAllocator
from dsegsim.trace import EventKind

from tracer import Target, Tracer

# metric name -> unit, for every per-layer metric; ``.<variant>`` is appended.
# engine.start.* time each step() that handled a start event; tail_us is the
# highest percentile, at most p99.9, with at least ten samples beyond it
# (p99.5 at 2000 starts), and samples is their count.
ALL_VARIANTS = {
    "trace.load_trace.s": "s",
    "report.emit.s": "s",
    "engine.run.s": "s",
    "engine.event_order.s": "s",
    "engine.step.self_s": "s",
    "engine.finish.s": "s",
    "engine.start.p50_us": "us",
    "engine.start.tail_us": "us",
    "engine.start.samples": "count",
    "engine.alloc_latency_us.mean": "us",
    "engine.alloc_latency_us.stdev": "us",
    "engine.placed": "count",
    "engine.rejections": "count",
    "engine.dsn_share": "ratio",
    "scheduler.filter_resources.s": "s",
    "scheduler.filter_resources.kept_ratio": "ratio",
    "mmu.build_register_file.s": "s",
    "mmu.translate_gpa.calls": "count",
    "mmu.translate_gpa.s": "s",
    "mmu.translate_gpa.violations": "count",
    "tracing.overhead_ratio": "ratio",
}
SEGMENT_VARIANTS = {
    "scheduler.filter_min_segments.self_s": "s",
    "scheduler.filter_min_segments.peeks_per_call": "count",
    "scheduler.free_segments.mean": "count",
    "segments.peek_segment_count.s": "s",
    "segments.peek_segment_count.feasible_ratio": "ratio",
    "segments.allocate.s": "s",
    "segments.allocate.k1_ratio": "ratio",
    "segments.allocate.fallback_ratio": "ratio",
    "segments.release.s": "s",
}
BASELINE_ONLY = {
    "scheduler.baseline_pick.s": "s",
    "baseline.allocate.s": "s",
    "baseline.release.s": "s",
}
DYNAMIC_ONLY = {
    "scheduler.reselect_option.calls": "count",
    "scheduler.reselect_option.s": "s",
    "scheduler.reselect_option.self_s": "s",
    "scheduler.reselect_option.changed_ratio": "ratio",
    "engine.option_switches": "count",
}


def metric_units(variants: tuple[str, ...]) -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for v in variants:
        groups = [ALL_VARIANTS]
        groups.append(BASELINE_ONLY if v == "baseline" else SEGMENT_VARIANTS)
        if v == "dynamic":
            groups.append(DYNAMIC_ONLY)
        for group in groups:
            units.update({f"{name}.{v}": unit for name, unit in group.items()})
    return units


def tail_rank(samples: int) -> float:
    """Highest quantile, at most p99.9, with at least ten samples beyond it."""
    return min(0.999, 1 - 10 / max(samples, 10))


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 without samples."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Probe:
    """Tracer plus the counts taken at layer boundaries for one traced replay."""

    def __init__(self, n: int) -> None:
        self.tracer = Tracer()
        self.n = n
        self.start_steps: list[int] = []
        self.kept = self.scanned = 0
        self.candidates = self.candidate_segments = 0
        self.feasible = 0
        self.grants = self.k1 = self.fallback = 0
        self.reselect_changed = 0
        # (allocation, demand) for every grant the engine made, for the
        # translation oracle; the reselection's internal replays are excluded
        self.captured: list[tuple[object, int]] = []

    def targets(self) -> list[Target]:
        """The attributes to wrap. One that a refactor moved or deleted is
        left out, so its layer reads 0 instead of breaking the run."""
        both = (engine, scheduler)
        targets = [
            Target(cli, "load_trace", "trace.load_trace"),
            Target(report, "emit", "report.emit"),
            Target(engine, "run", "engine.run"),
            Target(engine, "new_state", "engine.new_state"),
            Target(engine, "event_order", "engine.event_order"),
            Target(engine, "step", "engine.step", self._on_step),
            Target(engine, "finish", "engine.finish"),
            Target(engine, "build_fleet", "trace.build_fleet"),
            Target(trace, "build_fleet", "trace.build_fleet"),
            *(Target(m, "record_event", "scheduler.record_event") for m in both),
            *(Target(m, "filter_resources", "scheduler.filter_resources", self._on_filter)
              for m in both),
            *(Target(m, "filter_min_segments", "scheduler.filter_min_segments",
                     self._on_pick) for m in both),
            *(Target(m, "baseline_pick", "scheduler.baseline_pick") for m in both),
            *(Target(m, "reselect_option", "scheduler.reselect_option", self._on_reselect)
              for m in both),
            Target(scheduler, "peek_segment_count", "segments.peek_segment_count",
                   self._on_peek),
            Target(engine, "allocate", "segments.allocate", self._on_engine_grant),
            Target(scheduler, "allocate", "segments.allocate", self._on_grant),
            *(Target(m, "release", "segments.release") for m in both),
            Target(BuddyAllocator, "allocate", "baseline.allocate", self._on_buddy_grant),
            Target(BuddyAllocator, "release", "baseline.release"),
            Target(BuddyAllocator, "free_runs", "baseline.free_runs"),
            Target(mmu, "build_register_file", "mmu.build_register_file"),
            Target(mmu, "translate_gpa", "mmu.translate_gpa"),
        ]
        return [t for t in targets if hasattr(t.owner, t.attr)]

    def _on_step(self, args, result, idx) -> None:
        if args[1].kind is EventKind.START:
            self.start_steps.append(idx)

    def _on_filter(self, args, result, idx) -> None:
        self.kept += len(result)
        self.scanned += len(args[0])

    def _on_pick(self, args, result, idx) -> None:
        self.candidates += len(args[0])
        self.candidate_segments += sum(len(m.free_list.segments) for m in args[0])

    def _on_peek(self, args, result, idx) -> None:
        self.feasible += result is not None

    def _on_grant(self, args, result, idx) -> None:
        self.grants += 1
        self.k1 += result.k == 1
        self.fallback += result.k > self.n

    def _on_engine_grant(self, args, result, idx) -> None:
        self._on_grant(args, result, idx)
        self.captured.append((result, args[2]))

    def _on_buddy_grant(self, args, result, idx) -> None:
        self.captured.append((result, args[2]))

    def _on_reselect(self, args, result, idx) -> None:
        self.reselect_changed += result is not args[2].current_policy

    def metrics(self, variant: str, plain_report: dict, overhead: float,
                violations: int) -> dict[str, float]:
        """Per-layer values for one variant, suffixed with ``.<variant>``.

        ``plain_report`` is the untraced replay's report.json: its latencies
        carry no tracing overhead.
        """
        totals = self.tracer.aggregate()

        def span(name: str, stat: str = "s") -> float:
            t = totals.get(name)
            return 0.0 if t is None else getattr(t, stat)

        starts = sorted(self.tracer.duration(i) * 1e6 for i in self.start_steps)
        latency = plain_report["alloc_latency_ms"] or {"mean": 0.0, "stdev": 0.0}
        placed = plain_report["placed"]
        records = plain_report["records"]
        values = {
            "trace.load_trace.s": span("trace.load_trace"),
            "report.emit.s": span("report.emit"),
            "engine.run.s": span("engine.run"),
            "engine.event_order.s": span("engine.event_order"),
            "engine.step.self_s": span("engine.step", "self_s"),
            "engine.finish.s": span("engine.finish"),
            "engine.start.p50_us": quantile(starts, 0.5),
            "engine.start.tail_us": quantile(starts, tail_rank(len(starts))),
            "engine.start.samples": len(starts),
            "engine.alloc_latency_us.mean": latency["mean"] * 1e3,
            "engine.alloc_latency_us.stdev": latency["stdev"] * 1e3,
            "engine.placed": placed,
            "engine.rejections": plain_report["rejections"],
            "engine.dsn_share": ratio(sum(r["mode"] == "dsn" for r in records), placed),
            "scheduler.filter_resources.s": span("scheduler.filter_resources"),
            "scheduler.filter_resources.kept_ratio": ratio(self.kept, self.scanned),
            "mmu.build_register_file.s": span("mmu.build_register_file"),
            "mmu.translate_gpa.calls": span("mmu.translate_gpa", "count"),
            "mmu.translate_gpa.s": span("mmu.translate_gpa"),
            "mmu.translate_gpa.violations": violations,
            "tracing.overhead_ratio": overhead,
        }
        if variant == "baseline":
            values.update({
                "scheduler.baseline_pick.s": span("scheduler.baseline_pick"),
                "baseline.allocate.s": span("baseline.allocate"),
                "baseline.release.s": span("baseline.release"),
            })
        else:
            picks = span("scheduler.filter_min_segments", "count")
            peeks = span("segments.peek_segment_count", "count")
            values.update({
                "scheduler.filter_min_segments.self_s":
                    span("scheduler.filter_min_segments", "self_s"),
                "scheduler.filter_min_segments.peeks_per_call": ratio(peeks, picks),
                "scheduler.free_segments.mean":
                    ratio(self.candidate_segments, self.candidates),
                "segments.peek_segment_count.s": span("segments.peek_segment_count"),
                "segments.peek_segment_count.feasible_ratio": ratio(self.feasible, peeks),
                "segments.allocate.s": span("segments.allocate"),
                "segments.allocate.k1_ratio": ratio(self.k1, self.grants),
                "segments.allocate.fallback_ratio": ratio(self.fallback, self.grants),
                "segments.release.s": span("segments.release"),
            })
        if variant == "dynamic":
            calls = span("scheduler.reselect_option", "count")
            values.update({
                "scheduler.reselect_option.calls": calls,
                "scheduler.reselect_option.s": span("scheduler.reselect_option"),
                "scheduler.reselect_option.self_s":
                    span("scheduler.reselect_option", "self_s"),
                "scheduler.reselect_option.changed_ratio":
                    ratio(self.reselect_changed, calls),
                "engine.option_switches": len(plain_report["option_switches"]),
            })
        return {f"{name}.{variant}": value for name, value in values.items()}
