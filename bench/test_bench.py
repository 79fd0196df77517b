"""Tests of the benchmark itself: ``PYTHONPATH=src python3 -m pytest -q bench``."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import hostspeed
import run

run.load_program()

from dsegsim import mmu  # noqa: E402
from dsegsim.segments import SegmentDescriptor, VMAllocation  # noqa: E402

from checks import check_translation  # noqa: E402
from harness import VARIANTS, Normaliser, Session, trace_layers  # noqa: E402
from layers import Probe, metric_units, tail_rank  # noqa: E402
from tracer import Target, Tracer, patched  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GIB = 1 << 30


def small_session(tmp_path, name="fragment", seed=5):
    return Session(replace(WORKLOADS[name], vms=300), seed, tmp_path / f"{name}-{seed}")


def test_self_time_subtracts_direct_children_only():
    t = Tracer()
    root = t.add_span("engine.run", 0.0, 10.0)
    step = t.add_span("engine.step", 1.0, 7.0, root)
    t.add_span("segments.peek_segment_count", 2.0, 3.0, step)
    t.add_span("segments.peek_segment_count", 4.0, 6.5, step)
    t.add_span("engine.finish", 8.0, 9.0, root)
    assert t.self_times() == pytest.approx([3.0, 2.5, 1.0, 2.5, 1.0])
    totals = t.aggregate()
    assert totals["segments.peek_segment_count"].count == 2
    assert totals["segments.peek_segment_count"].s == pytest.approx(3.5)
    assert totals["engine.step"].self_s == pytest.approx(2.5)
    assert totals["engine.run"].s == pytest.approx(10.0)


def test_wrapper_links_nested_calls_and_observes_results():
    class Box:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Box.inner(x) * 2

    seen = []
    tracer = Tracer()
    targets = [
        Target(Box, "outer", "outer"),
        Target(Box, "inner", "inner", lambda args, result, idx: seen.append((args, result))),
    ]
    with patched(tracer, targets):
        assert Box.outer(3) == 8
    assert list(tracer.parents) == [-1, 0]
    assert seen == [((3,), 4)]


def test_patched_restores_attributes_when_the_body_raises():
    probe = Probe(3)
    targets = probe.targets()
    before = [getattr(t.owner, t.attr) for t in targets]
    with pytest.raises(RuntimeError):
        with patched(probe.tracer, targets):
            assert all(getattr(t.owner, t.attr) is not b for t, b in zip(targets, before))
            raise RuntimeError("replay failed")
    assert all(getattr(t.owner, t.attr) is b for t, b in zip(targets, before))


def test_traced_run_restores_wrapped_functions_and_reports_every_layer(tmp_path):
    targets = Probe(3).targets()
    before = [getattr(t.owner, t.attr) for t in targets]
    session = small_session(tmp_path)
    metrics = trace_layers(session)
    assert all(getattr(t.owner, t.attr) is b for t, b in zip(targets, before))
    assert session.failed == 0
    assert set(metrics) == set(metric_units(VARIANTS))
    assert metrics["engine.start.samples.opt1"]["value"] == 300
    for v in VARIANTS:
        assert (tmp_path / "fragment-5" / f"spans-{v}.csv").is_file()


def test_two_runs_of_a_small_workload_give_equal_digests(tmp_path):
    first, second = small_session(tmp_path / "a"), small_session(tmp_path / "b")
    for session in (first, second):
        session.setup()
        for v in VARIANTS:
            session.replay(v)
        assert session.failed == 0
    assert first.digests == second.digests
    assert len(set(first.digests.values())) == len(VARIANTS)


def test_checks_catch_a_corrupted_report(tmp_path):
    session = small_session(tmp_path)
    session.setup()
    _, report = session.replay("opt1")
    assert session.check("opt1", report) == []

    leaked = copy.deepcopy(report)
    leaked["final_free"]["0"] = [[0, 256 * GIB]]
    assert any("final_free" in p for p in session.check("opt1", leaked))

    mislabelled = copy.deepcopy(report)
    mislabelled["records"][0]["k"] = 4
    assert any("mode" in p for p in session.check("opt1", mislabelled))

    lost = copy.deepcopy(report)
    lost["rejections"] += 1
    assert any("rejections" in p for p in session.check("opt1", lost))

    switched = copy.deepcopy(report)
    switched["option_switches"] = [[604800, "opt2"]]
    assert any("option switches" in p for p in session.check("opt1", switched))


def test_translation_oracle_accepts_sound_and_flags_broken_translation(monkeypatch):
    allocation = VMAllocation("vm", (
        SegmentDescriptor(8 * GIB, 9 * GIB), SegmentDescriptor(2 * GIB, 4 * GIB),
    ))
    assert check_translation(allocation, 3 * GIB, 3) == ([], 1)
    sound = mmu.translate_gpa
    monkeypatch.setattr(mmu, "translate_gpa", lambda regs, gpa: sound(regs, gpa) + 1)
    problems, _ = check_translation(allocation, 3 * GIB, 3)
    assert len(problems) == 4


def test_normaliser_divides_by_the_probes_around_each_call(monkeypatch):
    probes = iter([0.2, 0.2, 0.4, 0.4])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    normalise = Normaliser()
    ref = hostspeed.REFERENCE_S
    assert normalise(1.0) == pytest.approx(1.0 / 0.2 * ref)
    assert normalise(1.5) == pytest.approx(1.5 / 0.3 * ref)
    assert normalise(2.0) == pytest.approx(2.0 / 0.4 * ref)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_rank(10_000) == pytest.approx(0.999)
    assert tail_rank(2_000) == pytest.approx(0.995)


def test_benchmark_json_names_every_metric_and_workload():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    assert {m["name"] for m in doc["end_to_end"]} == {
        "setup_s", "peak_rss_mb", *(f"starts_per_s.{v}" for v in VARIANTS)
    }
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == metric_units(VARIANTS)


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
