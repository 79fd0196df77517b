"""Output checks on every replay, the report digest, and the translation
oracle for captured register-file (DS-n) allocations."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from dsegsim import mmu

# report.json fields that make up SimulationReport.core(): everything but the
# measured allocation latencies.
CORE_FIELDS = (
    "variant", "n", "seed", "machine_count", "start_count", "rejections",
    "anomalies", "implicit_stops", "option_switches", "final_free",
)


@dataclass(frozen=True)
class Expected:
    variant: str
    n: int
    start_count: int
    user_regions: dict[str, list[list[int]]]


def check_report(report: dict, expected: Expected) -> list[str]:
    """Problems found in one replay's report.json; empty when it is sound."""
    problems = []
    if report["variant"] != expected.variant or report["n"] != expected.n:
        problems.append(f"ran variant {report['variant']} n={report['n']}")
    if report["start_count"] != expected.start_count:
        problems.append(
            f"start_count {report['start_count']} != {expected.start_count} trace starts"
        )
    records = report["records"]
    if report["placed"] != len(records):
        problems.append(f"placed {report['placed']} != {len(records)} records")
    if len(records) + report["rejections"] != report["start_count"]:
        problems.append(
            f"placed {len(records)} + rejections {report['rejections']} "
            f"!= start_count {report['start_count']}"
        )
    if report["anomalies"] != 0:
        problems.append(f"{report['anomalies']} anomalies")
    mislabelled = [
        r["vm_id"] for r in records if (r["mode"] == "dsn") != (r["k"] <= expected.n)
    ]
    if mislabelled:
        problems.append(f"{len(mislabelled)} records with mode != dsn iff k <= n, "
                        f"first {mislabelled[0]}")
    leaked = sorted(
        m for m in expected.user_regions.keys() | report["final_free"].keys()
        if report["final_free"].get(m) != expected.user_regions.get(m)
    )
    if leaked:
        problems.append(f"final_free is not the whole user region on machines {leaked[:5]}")
    if report["option_switches"] and expected.variant != "dynamic":
        problems.append(f"{len(report['option_switches'])} option switches under "
                        f"{expected.variant}")
    return problems


def digest(report: dict) -> str:
    """Hash of the core() projection of report.json: equal digests mean the
    same simulated outcome, whatever the measured latencies were."""
    core = {name: report[name] for name in CORE_FIELDS}
    core["records"] = [
        [r["vm_id"], r["time"], r["machine_id"], r["k"], r["mode"]] for r in report["records"]
    ]
    text = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_translation(allocation, guest_bytes: int, n: int) -> tuple[list[str], int]:
    """Translate the first and last byte of every guest segment and the first
    byte past the guest space through the program's register file.

    Guest segment i starts at the summed size of segments 0..i-1 and must map
    to hb_i + offset. Returns the problems found and the number of
    DsnViolation raised (one per sound register file).
    """
    try:
        regs = mmu.build_register_file(allocation, guest_bytes, n)
    except ValueError as exc:
        return [f"{allocation.vm_id}: {exc}"], 0
    problems = []
    guest = 0
    for seg in allocation.segments:
        for gpa, hpa in ((guest, seg.base), (guest + seg.size - 1, seg.limit - 1)):
            try:
                got = mmu.translate_gpa(regs, gpa)
            except mmu.DsnViolation as exc:
                problems.append(f"{allocation.vm_id}: gpa {gpa:#x} raised {exc}")
                continue
            if got != hpa:
                problems.append(f"{allocation.vm_id}: gpa {gpa:#x} -> {got:#x}, want {hpa:#x}")
        guest += seg.size
    try:
        mmu.translate_gpa(regs, guest)
    except mmu.DsnViolation:
        return problems, 1
    problems.append(f"{allocation.vm_id}: gpa {guest:#x} == guest_bytes translated")
    return problems, 0
