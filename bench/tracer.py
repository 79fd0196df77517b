"""In-memory span recorder that times program layers from outside.

The tracer replaces module or class attributes with wrappers that record one
span per call: name, start, end and the span that was open when the call
began (its parent). Spans live in flat arrays until the benchmark writes them
out at the end. A layer's self time is its span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import csv
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

NO_PARENT = -1

# observe(args, result, span_index) runs after a call returns normally; it
# lets a layer count work at the boundary where it happens.
Observer = Callable[[tuple, object, int], None]


@dataclass
class LayerTotals:
    count: int = 0
    s: float = 0.0
    self_s: float = 0.0


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` recorded as span ``name``."""

    owner: object
    attr: str
    name: str
    observe: Observer | None = None


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.current = NO_PARENT

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add_span(self, name: str, start: float, end: float, parent: int = NO_PARENT) -> int:
        """Record a finished span; returns its index."""
        self.name_ids.append(self._name_id(name))
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.starts) - 1

    def wrap(self, fn: Callable, name: str, observe: Observer | None = None) -> Callable:
        nid = self._name_id(name)
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = self.current
            name_ids.append(nid)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            self.current = idx
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.current = parent
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(args, result, idx)
            return result

        traced.__wrapped__ = fn
        return traced

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(own)
        for i, parent in enumerate(self.parents):
            if parent != NO_PARENT:
                child[parent] += own[i]
        return [d - c for d, c in zip(own, child)]

    def aggregate(self) -> dict[str, LayerTotals]:
        """Count, total time and self time per span name, in one pass."""
        totals = {name: LayerTotals() for name in self.names}
        for nid, start, end, own in zip(
            self.name_ids, self.starts, self.ends, self.self_times()
        ):
            t = totals[self.names[nid]]
            t.count += 1
            t.s += end - start
            t.self_s += own
        return totals

    def write_csv(self, path: Path) -> None:
        """Spans as ``id,name,start_s,end_s,parent`` with times relative to
        the first span."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start_s", "end_s", "parent"))
            names = self.names
            out.writerows(
                (i, names[n], f"{s - origin:.9f}", f"{e - origin:.9f}", p)
                for i, (n, s, e, p) in enumerate(
                    zip(self.name_ids, self.starts, self.ends, self.parents)
                )
            )


@contextmanager
def patched(tracer: Tracer, targets: list[Target]) -> Iterator[Tracer]:
    """Install a traced wrapper for every target; restore the originals on
    exit, also when the body raises."""
    originals = []
    try:
        for t in targets:
            original = getattr(t.owner, t.attr)
            originals.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, tracer.wrap(original, t.name, t.observe))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
