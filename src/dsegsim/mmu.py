"""DS-n register-file translation and TLB-miss cost models.

A VM whose memory was granted as k <= n host segments translates guest
physical addresses with a small register file instead of a second page-table
layer: the guest space [0, guest_mem) is partitioned at the gb boundaries and
each piece maps onto one host segment by a plain offset addition. A miss then
costs one native-style 1D walk plus register arithmetic, against the 24
memory references of a radix-4 nested walk.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import TextIO

from .segments import VMAllocation
from .trace import TraceFormatError, read_utf8


class DsnViolation(Exception):
    """The guest physical address falls outside every mapped segment."""


class InconsistentAllocationError(ValueError):
    """Granted segment sizes do not add up to the VM's memory size."""


class CounterFormatError(TraceFormatError):
    """A workload-counter file line cannot be parsed."""


class WalkMode(Enum):
    NATIVE_1D = "native1d"
    DSN = "dsn"
    EPT = "ept"
    SHADOW = "shadow"


@dataclass(frozen=True)
class DsnRegisterFile:
    """Translation registers for one VM: guest boundaries, host bases, limit.

    ``gb`` holds the k-1 upper guest boundaries (the first is implicitly 0);
    ``hb`` holds the k host segment bases; ``limit`` is the exclusive end of
    the last host segment.
    """

    n: int
    gb: tuple[int, ...]
    hb: tuple[int, ...]
    limit: int

    def __post_init__(self) -> None:
        k = len(self.hb)
        if not 1 <= k <= self.n:
            raise ValueError(f"k={k} outside 1..n={self.n}")
        if len(self.gb) != k - 1:
            raise ValueError(f"expected {k - 1} guest boundaries, got {len(self.gb)}")
        if any(b <= 0 for b in self.gb) or any(
            a >= b for a, b in zip(self.gb, self.gb[1:])
        ):
            raise ValueError("guest boundaries must be positive and strictly increasing")
        if self.limit <= self.hb[-1]:
            raise ValueError("limit must lie beyond the last host base")
        spans = sorted(self.host_segment(i) for i in range(k))
        for (_, end), (start, _) in zip(spans, spans[1:]):
            if start < end:
                raise ValueError("host segments overlap")

    @property
    def k(self) -> int:
        return len(self.hb)

    @property
    def guest_boundaries(self) -> tuple[int, ...]:
        return (0,) + self.gb

    def host_segment(self, i: int) -> tuple[int, int]:
        """Host byte range [start, end) backing guest segment i."""
        gbs = self.guest_boundaries
        if i < self.k - 1:
            return self.hb[i], self.hb[i] + (gbs[i + 1] - gbs[i])
        return self.hb[i], self.limit


def build_register_file(
    allocation: VMAllocation, guest_mem_bytes: int, n: int
) -> DsnRegisterFile | None:
    """Populate the register file from an allocation, or None when k > n.

    The guest space is partitioned contiguously across the host segments in
    grant order: boundary i is the cumulative size of the first i segments.
    """
    if not allocation.segments:
        raise InconsistentAllocationError("allocation carries no segments")
    total = allocation.total_bytes
    if total != guest_mem_bytes:
        raise InconsistentAllocationError(
            f"granted {total} bytes but the VM was promised {guest_mem_bytes}"
        )
    if allocation.k > n:
        return None
    boundaries = []
    acc = 0
    for seg in allocation.segments[:-1]:
        acc += seg.size
        boundaries.append(acc)
    return DsnRegisterFile(
        n=n,
        gb=tuple(boundaries),
        hb=tuple(seg.base for seg in allocation.segments),
        limit=allocation.segments[-1].limit,
    )


def translate_gpa(regs: DsnRegisterFile, gpa: int) -> int:
    """hpa = hb_i + (gpa - gb_i) for the last boundary at or below gpa.

    Raises DsnViolation when the resulting address is not backed by host
    segment i, i.e. the guest touched unmapped physical space.
    """
    if gpa < 0:
        raise DsnViolation(f"gpa {gpa:#x} is negative")
    gbs = regs.guest_boundaries
    i = regs.k - 1
    while gbs[i] > gpa:  # linear scan mirrors the hardware comparators; k <= 8
        i -= 1
    hpa = regs.hb[i] + (gpa - gbs[i])
    start, end = regs.host_segment(i)
    if not start <= hpa < end:
        raise DsnViolation(f"gpa {gpa:#x} maps outside segment {i}")
    return hpa


def walk_refs(mode: WalkMode, levels: int = 4) -> int:
    """Memory references per TLB miss: 1D walks touch one entry per level,
    a nested radix walk touches (levels + 1)**2 - 1 (24 for radix-4)."""
    if levels < 1:
        raise ValueError("page tables need at least one level")
    if mode is WalkMode.EPT:
        return (levels + 1) ** 2 - 1
    return levels


def dsn_reg_ops(levels: int = 4) -> int:
    """Register operations per miss: one offset addition plus one comparison
    for each guest physical address a walk level extracts, whatever the
    number of segments. Reported for cost commentary."""
    if levels < 1:
        raise ValueError("page tables need at least one level")
    return 2 * levels


_COUNTER_FIELDS = (
    "n_tlb", "n_exit", "c_1d", "c_2d", "c_exit", "c_handler", "t_1d", "t_reg2reg",
)


@dataclass(frozen=True)
class WorkloadCounters:
    """Measured inputs of the runtime and cycle cost models.

    n_tlb: TLB misses; n_exit: page-table VMExits under shadow paging;
    c_1d / c_2d: cycles per 1D / nested walk; c_exit: cycles for one
    VMExit+VMEnter pair (measured as a sum, never separated); c_handler:
    mean handler cycles; t_1d: seconds of runtime in 1D-walk mode;
    t_reg2reg: seconds of register arithmetic per miss for the chosen n.
    """

    n_tlb: float = 0.0
    n_exit: float = 0.0
    c_1d: float = 0.0
    c_2d: float = 0.0
    c_exit: float = 0.0
    c_handler: float = 0.0
    t_1d: float = 0.0
    t_reg2reg: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            _check_counter(f.name, getattr(self, f.name))


def _check_counter(name: str, value: float) -> None:
    if not 0 <= value < math.inf:  # NaN fails both comparisons
        raise ValueError(f"counter {name} must be finite and non-negative, got {value}")


def parse_counters(source: TextIO | str) -> WorkloadCounters:
    """Parse `name = number` lines; '#' starts a comment, blank lines ignored.
    Lines break only at LF, CR or CRLF, so a form feed or a Unicode line
    separator in a comment stays in it."""
    if isinstance(source, str):
        source = io.StringIO(source, newline="")
    values: dict[str, float] = {}
    for lineno, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, sep, number = line.partition("=")
        if not sep:
            raise CounterFormatError(lineno, "expected `name = number`")
        name = name.strip()
        if name not in _COUNTER_FIELDS:
            raise CounterFormatError(lineno, f"unknown counter {name!r}")
        if name in values:
            raise CounterFormatError(lineno, f"duplicate counter {name!r}")
        try:
            values[name] = float(number.strip())
        except ValueError:
            raise CounterFormatError(lineno, f"bad number {number.strip()!r}") from None
        try:
            _check_counter(name, values[name])
        except ValueError as exc:
            raise CounterFormatError(lineno, str(exc)) from None
    return WorkloadCounters(**values)


def load_counters(path: str | Path) -> WorkloadCounters:
    return read_utf8(path, parse_counters, CounterFormatError)


@dataclass(frozen=True)
class CostBreakdown:
    """Cycle cost of memory virtualization, split into its two sources."""

    mode: WalkMode
    walk_cycles: float
    exit_cycles: float

    @property
    def total_cycles(self) -> float:
        return self.walk_cycles + self.exit_cycles

    def as_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "walk_cycles": self.walk_cycles,
            "exit_cycles": self.exit_cycles,
            "total_cycles": self.total_cycles,
        }


def estimate_runtime_dsn(counters: WorkloadCounters) -> float:
    """Runtime in seconds on register-file translation hardware:
    t_1d + n_tlb * t_reg2reg."""
    return counters.t_1d + counters.n_tlb * counters.t_reg2reg


def virtualization_cost(mode: WalkMode, counters: WorkloadCounters) -> CostBreakdown:
    """Cycle cost per mode.

    Register-file and native translation pay one 1D walk per miss; nested
    paging pays a 2D walk per miss; shadow paging pays the 1D walk plus
    (c_exit + c_handler) per page-table VMExit.
    """
    if mode is WalkMode.EPT:
        return CostBreakdown(mode, counters.c_2d * counters.n_tlb, 0.0)
    if mode is WalkMode.SHADOW:
        return CostBreakdown(
            mode,
            counters.c_1d * counters.n_tlb,
            counters.n_exit * (counters.c_exit + counters.c_handler),
        )
    return CostBreakdown(mode, counters.c_1d * counters.n_tlb, 0.0)
