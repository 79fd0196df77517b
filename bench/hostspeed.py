"""A fixed, stdlib-only probe of how fast the host runs Python right now.

On a shared host the speed at which one core runs interpreted code drifts by
up to 1.7x over tens of seconds to minutes, with no CPU steal to show for it
(other tenants share caches, memory bandwidth and hyperthread siblings).
Every replay's wall time moves with that drift, so a wall time taken alone
varies more from run to run than any bound a regression check can use.

The benchmark therefore times this probe right before and right after every
replay and set-up and divides by it. The probe never calls dsegsim, so a
change to the program moves the replay time and not the probe: the ratio
keeps every change in the program's speed and drops the host's drift.
``REFERENCE_S`` turns the ratio back into seconds: it is about the probe's
fastest time on a 2-vCPU Intel Xeon VM with Python 3.11.7, so a normalised
time reads as the wall time that host gives when nothing else slows it.

The probe does the kinds of work a replay does, in about the same mix:
object and dataclass churn over a free-list placement loop (placement and
segments), a large heap of tuples built and drained (the buddy allocator
seeding a fleet) and JSON encoding of records (report emit).
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import time
from dataclasses import asdict, dataclass

REFERENCE_S = 0.08
SEED = 7


@dataclass
class _Span:
    start: int
    end: int

    @property
    def size(self) -> int:
        return self.end - self.start


def _placement(rng: random.Random) -> int:
    free = {m: [_Span(i * 64, i * 64 + rng.randrange(1, 64)) for i in range(8)]
            for m in range(100)}
    live: list[tuple[int, int, int, _Span]] = []
    placed = 0
    for step in range(150):
        need = rng.randrange(1, 48)
        fits = [m for m, spans in free.items() if sum(s.size for s in spans) >= need]
        best = min(fits, key=lambda m: sum(1 for s in free[m] if s.size >= need), default=None)
        if best is not None:
            spans = free[best]
            spans.sort(key=lambda s: s.size)
            i = next((i for i, s in enumerate(spans) if s.size >= need), len(spans) - 1)
            heapq.heappush(live, (step + rng.randrange(60), step, best, spans.pop(i)))
            placed += 1
        while live and live[0][0] <= step:
            _, _, m, span = heapq.heappop(live)
            free[m].append(span)
    return placed


def _heap(rng: random.Random) -> int:
    heap: list[tuple[int, int]] = []
    seen: set[int] = set()
    for _ in range(25_000):
        key = rng.getrandbits(20)
        heapq.heappush(heap, (key.bit_length(), key))
        seen.add(key)
    drained = 0
    while heap:
        _, key = heapq.heappop(heap)
        drained += key in seen
    return drained


def _emit(rng: random.Random) -> int:
    records = [asdict(_Span(i, i + rng.randrange(1, 1 << 30))) for i in range(2_000)]
    return len(json.dumps(records, indent=2))


def probe() -> float:
    """Seconds one run of the probe takes now."""
    rng = random.Random(SEED)
    gc.collect()
    t0 = time.perf_counter()
    _placement(rng)
    _heap(rng)
    _emit(rng)
    return time.perf_counter() - t0
