"""Segment-based VM memory allocation, register-file address translation,
segment-aware placement, and datacenter trace replay."""

from .baseline import BuddyAllocator
from .engine import SimulationState, finish, new_state, reselect_option, run, step
from .mmu import (
    CostBreakdown,
    DsnRegisterFile,
    DsnViolation,
    WalkMode,
    WorkloadCounters,
    build_register_file,
    dsn_reg_ops,
    estimate_runtime_dsn,
    load_counters,
    parse_counters,
    translate_gpa,
    virtualization_cost,
    walk_refs,
)
from .report import (
    DemandCdf,
    SegmentHistogram,
    SimulationReport,
    VmRecord,
    alloc_frequency,
    demand_size_cdf,
    emit,
    latency_stats,
    segment_histogram,
)
from .scheduler import (
    MachineView,
    NoCandidateError,
    PlacementRequest,
    SchedulerConfig,
    SimVariant,
    baseline_pick,
    filter_min_segments,
    filter_resources,
)
from .segments import (
    AllocationPolicy,
    FreeSegmentList,
    InsufficientMemoryError,
    InvalidSizeError,
    OverlapError,
    PAGE_SIZE,
    SegmentDescriptor,
    VMAllocation,
    VmMode,
    allocate,
    new_machine,
    peek_segment_count,
    release,
)
from .trace import (
    DEFAULT_FLAVORS,
    DEFAULT_GENERATIONS,
    Distribution,
    EventKind,
    Flavor,
    FleetSpec,
    Generation,
    SnapshotRecord,
    TraceFormatError,
    VmEvent,
    build_fleet,
    default_fleet_spec,
    derive_bootstorm,
    gen_synthetic,
    load_fleet_spec,
    load_trace,
    parse_trace,
    serialize_trace,
    start_event,
    stop_event,
    write_trace,
)

__version__ = "0.1.0"
