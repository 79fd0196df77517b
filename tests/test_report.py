import csv
import dataclasses
import io
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dsegsim.engine import run
from dsegsim.report import (
    Reselection,
    SimulationReport,
    VmRecord,
    alloc_frequency,
    demand_size_cdf,
    emit,
    format_pct,
    latency_stats,
    segment_histogram,
    summary_dict,
)
from dsegsim.scheduler import SimVariant
from dsegsim.trace import (
    DEFAULT_FLAVORS,
    Distribution,
    FleetSpec,
    Generation,
    default_fleet_spec,
    gen_synthetic,
    start_event,
    stop_event,
)
from oracle import report_json_by_dumps, report_payload

GIB = 1 << 30


def make_report(ks, variant="opt1", latencies=None):
    latencies = latencies or [0.001] * len(ks)
    records = tuple(
        VmRecord(f"vm{i}", i, 0, k, "dsn" if k <= 3 else "fallback", lat)
        for i, (k, lat) in enumerate(zip(ks, latencies))
    )
    return SimulationReport(
        variant=variant,
        n=3,
        seed=0,
        machine_count=1,
        start_count=len(ks),
        records=records,
        rejections=0,
        anomalies=0,
        implicit_stops=0,
        option_switches=(),
        final_free={0: ((0, GIB),)},
    )


class TestSegmentHistogram:
    def test_direct_count(self):
        hist = segment_histogram(make_report([1, 1, 2]))
        assert hist.pct_1 == pytest.approx(200 / 3)
        assert hist.pct_2 == pytest.approx(100 / 3)
        assert hist.pct_3 == 0 and hist.pct_gt3 == 0

    def test_all_single_segment(self):
        hist = segment_histogram(make_report([1] * 50))
        assert hist.as_tuple() == (100.0, 0.0, 0.0, 0.0)

    def test_everything_above_three(self):
        hist = segment_histogram(make_report([4, 5]))
        assert hist.as_tuple() == (0.0, 0.0, 0.0, 100.0)

    def test_empty_report_flagged(self):
        hist = segment_histogram(make_report([]))
        assert hist.empty
        assert hist.as_tuple() == (0.0, 0.0, 0.0, 0.0)

    def test_percentages_sum_to_100(self):
        hist = segment_histogram(make_report([1, 2, 2, 3, 4, 7, 1, 1, 3]))
        assert sum(hist.as_tuple()) == pytest.approx(100.0, abs=1e-6)


class TestLatencyStats:
    def test_constant_samples(self):
        assert latency_stats([2, 2, 2]) == (2, 0)

    def test_population_stdev(self):
        mean, stdev = latency_stats([1, 3])
        assert mean == 2
        assert stdev == 1  # population, not sample, deviation

    def test_empty_flagged(self):
        assert latency_stats([]) is None

    def test_matches_welford_stream(self):
        import random

        rng = random.Random(1)
        samples = [rng.expovariate(1 / 3.0) for _ in range(2000)]
        mean, stdev = latency_stats(samples)
        w_mean, w_m2 = 0.0, 0.0
        for i, x in enumerate(samples, start=1):
            delta = x - w_mean
            w_mean += delta / i
            w_m2 += delta * (x - w_mean)
        w_stdev = math.sqrt(w_m2 / len(samples))
        assert mean == pytest.approx(w_mean, rel=1e-9)
        assert stdev == pytest.approx(w_stdev, rel=1e-9)

    @staticmethod
    def assert_exact(samples, mean, stdev):
        """``mean`` and ``stdev`` within 1e-12 of the largest magnitude of the
        exact mean and population standard deviation, computed in fractions:
        as close as float subtraction of the mean can come. Below the
        subnormal spacing, within 2^-1075, half the smallest subnormal: the
        correctly rounded result of an exact value of 2^-1075 is 0.0."""
        scale = Fraction(max(map(abs, samples))) or Fraction(1)
        tolerance = max(scale / 10**12, Fraction(1, 2**1075))
        exact = sum(map(Fraction, samples)) / len(samples)
        var = sum((Fraction(x) - exact) ** 2 for x in samples) / len(samples)
        assert abs(Fraction(mean) - exact) <= tolerance
        assert abs(Fraction(stdev) - Fraction(math.sqrt(var / scale**2)) * scale) <= tolerance

    def test_huge_deviation_is_finite(self, tmp_path):
        """1.5e300 s beside 1e-5 s: each deviation's square is past float
        range, yet the stdev is finite and exact, and emit writes both
        formats."""
        report = make_report([1, 2], latencies=[1.5e300, 1e-5])
        samples = report.latencies_ms()
        mean, stdev = latency_stats(samples)
        assert math.isfinite(mean) and math.isfinite(stdev)
        self.assert_exact(samples, mean, stdev)
        assert stdev == pytest.approx(7.5e302, rel=1e-15)
        (path,) = emit(report, "json", tmp_path / "json")
        assert json.loads(path.read_text(encoding="utf-8"))["alloc_latency_ms"] == {
            "mean": mean, "stdev": stdev,
        }
        assert emit(report, "csv", tmp_path / "csv")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
    @example([0.0, 5e-324])
    def test_finite_samples_give_exact_finite_stats(self, samples):
        """Anywhere in float range, the sum of the samples included."""
        mean, stdev = latency_stats(samples)
        assert math.isfinite(mean) and math.isfinite(stdev)
        self.assert_exact(samples, mean, stdev)

    @pytest.mark.parametrize("samples", [[math.nan, 1.0], [math.inf, 1.0], [math.inf, math.inf],
                                         [-math.inf, math.inf]], ids=repr)
    def test_non_finite_sample_gives_nan_stdev(self, samples):
        mean, stdev = latency_stats(samples)
        assert math.isnan(stdev)
        assert mean == sum(samples) / 2 or math.isnan(mean)


FLEET10 = FleetSpec((Generation("m", 64 * GIB, 16, 100.0),), 10)


class TestAllocFrequency:
    def test_arithmetic(self):
        events = [start_event(f"v{i}", (i * 36000) // 99, 1, GIB) for i in range(100)]
        # span exactly 10 hours
        assert events[-1].time == 36000
        assert alloc_frequency(events, FLEET10) == pytest.approx(1.0)

    def test_no_starts(self):
        assert alloc_frequency([], FLEET10) == 0.0

    def test_one_start_per_hour_per_server(self):
        fleet1 = FleetSpec((Generation("m", 64 * GIB, 16, 100.0),), 1)
        events = [
            start_event("a", 0, 1, GIB),
            # the stop bounds the observation window at one hour
        ]
        events.append(stop_event("a", 3600))
        assert alloc_frequency(events, fleet1) == pytest.approx(1.0)

    def test_zero_span_flagged(self):
        events = [start_event("a", 5, 1, GIB)]
        assert alloc_frequency(events, FLEET10) is None


class TestDemandCdf:
    def test_points_and_distinct(self):
        events = [
            start_event("a", 0, 1, GIB),
            start_event("b", 1, 1, GIB),
            start_event("c", 2, 1, 2 * GIB),
        ]
        points = demand_size_cdf(events)
        assert len(points) == 2
        assert points == ((GIB, pytest.approx(2 / 3)), (2 * GIB, 1.0))

    def test_single_size_step_function(self):
        events = [start_event(f"v{i}", i, 1, GIB) for i in range(5)]
        points = demand_size_cdf(events)
        assert len(points) == 1
        assert points == ((GIB, 1.0),)

    def test_synthetic_trace_has_flavor_count_sizes(self):
        events = gen_synthetic(
            5000, DEFAULT_FLAVORS, Distribution.exponential(30), None, seed=6
        )
        assert len(demand_size_cdf(events)) == 14

    def test_cdf_is_monotone_ending_at_one(self):
        events = [start_event(f"v{i}", i, 1, (1 + i % 7) * GIB) for i in range(100)]
        points = demand_size_cdf(events)
        fracs = [f for _, f in points]
        assert fracs == sorted(fracs)
        assert fracs[-1] == 1.0


class TestFormatPct:
    def test_zero(self):
        assert format_pct(0.0) == "0"

    def test_scientific_below_milli(self):
        assert format_pct(6.18e-05) == "6.18E-05"

    def test_three_decimals(self):
        assert format_pct(99.9736) == "99.974"
        assert format_pct(100.0) == "100"
        assert format_pct(0.026) == "0.026"


class TestEmit:
    def test_emission_is_deterministic(self, tmp_path):
        report = make_report([1, 2, 1], latencies=[0.002, 0.0015, 0.0031])
        a = emit(report, "json", tmp_path / "a")
        b = emit(report, "json", tmp_path / "b")
        assert a[0].read_bytes() == b[0].read_bytes()

    def test_histogram_csv_has_four_columns(self, tmp_path):
        emit(make_report([1, 1, 2, 5]), "csv", tmp_path)
        header, row = (tmp_path / "histogram.csv").read_text().splitlines()
        assert header == "pct_1,pct_2,pct_3,pct_gt3"
        assert row == "50,25,0,25"

    def test_plotdata_columns(self, tmp_path):
        emit(make_report([1, 1, 1, 2]), "plotdata", tmp_path)
        lines = (tmp_path / "histogram.dat").read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1].split() == ["1", "75"]
        assert lines[2].split() == ["2", "25"]

    def test_json_payload_fields(self, tmp_path):
        report = make_report([1, 4])
        (path,) = emit(report, "json", tmp_path)
        payload = json.loads(path.read_text())
        assert payload["placed"] == 2
        assert payload["segment_histogram"]["pct_1"] == 50.0
        assert len(payload["records"]) == 2

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit(make_report([1]), "xml", tmp_path)


class TestCostSummary:
    def test_summary_dict_shape(self):
        data = summary_dict(make_report([1, 2]))
        assert data["placed"] == 2
        assert data["segment_histogram"]["pct_2"] == 50.0
        assert data["alloc_latency_ms"]["mean"] == pytest.approx(1.0)


def assert_same_json(actual, expected, where="report"):
    """Equal values of equal JSON types, with dict keys in the same order at
    every level."""
    assert type(actual) is type(expected), where
    if isinstance(expected, dict):
        assert list(actual) == list(expected), where
        for key in expected:
            assert_same_json(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_same_json(a, e, f"{where}[{i}]")
    else:
        assert actual == expected, where


def replay_reports(events, spec, period):
    return [
        run(events, spec, variant, n=3, seed=4, reselect_period=period)
        for variant in SimVariant
    ]


def hand_built_report():
    records = (
        VmRecord("vm-a", 0, 3, 1, "dsn", 0.0),
        VmRecord("vm-b", 7, 0, 5, "fallback", 1e-7),
        VmRecord("vm-c", 9, 3, 2, "dsn", 0.0031),
    )
    return SimulationReport(
        variant="dynamic",
        n=3,
        seed=9,
        machine_count=4,
        start_count=5,
        records=records,
        rejections=2,
        anomalies=1,
        implicit_stops=1,
        option_switches=((21600, "opt2"), (43200, "opt1")),
        final_free={
            3: ((0, 4096), (8192, GIB)),
            0: ((4096, 12288), (65536, 2 * GIB), (3 * GIB, 4 * GIB)),
            1: (),
        },
        reselections=(
            Reselection("records", "opt2", 4, 0, 3, (1, 3), (2, 3)),
            Reselection("replay", "opt1", 0, 9, 2, (0, 4), (1, 2)),
        ),
    )


class TestReportJson:
    """report.json parses to the object the deep-copying reference builds,
    key order included, whatever whitespace the encoder writes."""

    def assert_matches_reference(self, report, out_dir):
        (path,) = emit(report, "json", out_dir)
        expected = json.loads(json.dumps(report_payload(report), indent=2))
        assert_same_json(json.loads(path.read_text(encoding="utf-8")), expected)

    def test_churn_trace_all_variants(self, tmp_path):
        reports = replay_reports(
            gen_synthetic(
                80, DEFAULT_FLAVORS, Distribution.exponential(120),
                Distribution.exponential(6000), 3,
            ),
            default_fleet_spec(5),
            86400.0,
        )
        assert all(r.records for r in reports)
        for report in reports:
            self.assert_matches_reference(report, tmp_path / report.variant)

    def test_memory_bound_trace_all_variants(self, tmp_path):
        # 2 machines fill up: grants compose, VMs are rejected, dynamic reselects
        reports = replay_reports(
            gen_synthetic(
                150, DEFAULT_FLAVORS, Distribution.exponential(300),
                Distribution.exponential(20000), 5,
            ),
            FleetSpec((Generation("m", 256 * GIB, 256, 100.0),), 2),
            6 * 3600.0,
        )
        assert all(any(r.k > 3 for r in report.records) for report in reports)
        assert all(report.rejections > 0 for report in reports)
        assert reports[-1].variant == "dynamic" and reports[-1].option_switches
        for report in reports:
            self.assert_matches_reference(report, tmp_path / report.variant)
            # one record per option switch: fixed-policy variants write none
            assert len(report.reselections) == len(report.option_switches)

    def test_hand_built_report(self, tmp_path):
        report = hand_built_report()
        self.assert_matches_reference(report, tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert list(payload["final_free"]) == ["0", "1", "3"]
        assert payload["final_free"]["3"] == [[0, 4096], [8192, GIB]]
        assert payload["records"][1]["alloc_latency"] == 1e-7

    def test_records_carry_the_record_fields_in_order(self, tmp_path):
        """emit writes each record's object field by field; its keys are
        VmRecord's fields, in declaration order, and its values theirs."""
        report = hand_built_report()
        (path,) = emit(report, "json", tmp_path)
        records = json.loads(path.read_text(encoding="utf-8"))["records"]
        names = [f.name for f in dataclasses.fields(VmRecord)]
        assert [list(r) for r in records] == [names] * len(report.records)
        assert records == [dataclasses.asdict(r) for r in report.records]

    def test_reselections_carry_the_record_fields_in_order(self, tmp_path):
        """emit writes each reselection's object field by field, its keys
        ``Reselection``'s fields in declaration order, a score as a list and
        no fork or score as null, under one key after the parent keys; the
        csv and plotdata files and ``core()`` leave them out."""
        report = dataclasses.replace(hand_built_report(), reselections=(
            *hand_built_report().reselections, Reselection("none", "opt1"),
        ))
        (path,) = emit(report, "json", tmp_path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        names = [f.name for f in dataclasses.fields(Reselection)]
        assert list(payload)[-4:] == ["option_switches", "records", "final_free", "reselections"]
        assert [list(r) for r in payload["reselections"]] == [names] * 3
        assert payload["reselections"][0]["score"] == [1, 3]
        assert payload["reselections"][2] == {
            "origin": "none", "chosen": "opt1", "fork": None, "replay_steps": 0,
            "challenger_steps": 0, "score": None, "challenger_score": None,
        }
        assert "reselections" not in report.core()
        for fmt in ("csv", "plotdata"):
            for written in emit(report, fmt, tmp_path):
                assert "origin" not in written.read_text(encoding="utf-8")

    def test_one_compact_object(self, tmp_path):
        (path,) = emit(hand_built_report(), "json", tmp_path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("}\n") and text.count("\n") == 1


# latencies whose text json and repr may write differently: zero, the
# smallest subnormal, a short and a huge value, NaN and the infinities
EDGE_LATENCIES = (0.0, 5e-324, 1e-7, 1.5e300, math.nan, math.inf, -math.inf)
# characters json escapes or writes as \\u escapes: quotes, backslashes,
# control characters, non-ASCII ones beyond the BMP too
EDGE_CHARS = '"\\/\x00\x01\x1f\x7f\b\f\n\r\t\u00e9\u2028\U0001f600'


def emit_json(report):
    with tempfile.TemporaryDirectory() as out:
        (path,) = emit(report, "json", out)
        return path.read_bytes()


class TestReportJsonBytes:
    """emit writes each record by template; the file's bytes must be those
    of ``json.dumps`` of one dict per record (``oracle.report_json_by_dumps``)
    for any id and any latency, NaN and the infinities included, which json
    writes as ``NaN`` and ``Infinity`` where repr writes ``nan`` and
    ``inf``."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.tuples(
            st.text(st.one_of(st.sampled_from(EDGE_CHARS), st.characters()), max_size=6),
            st.integers(0, 10**12),
            st.integers(0, 10**6),
            st.integers(1, 40),
            st.sampled_from(["dsn", "fallback"]),
            st.one_of(st.sampled_from(EDGE_LATENCIES), st.floats(-1.0, 1.0)),
        ),
        max_size=6,
    ))
    def test_bytes_equal_json_dumps(self, fields):
        report = dataclasses.replace(
            hand_built_report(), records=tuple(VmRecord(*f) for f in fields)
        )
        assert emit_json(report) == report_json_by_dumps(report).encode()

    @pytest.mark.parametrize("latency", EDGE_LATENCIES, ids=repr)
    def test_each_edge_latency(self, latency):
        report = dataclasses.replace(hand_built_report(), records=(
            VmRecord('say "\u00e9\\\n"', 0, 1, 2, "dsn", latency),
            VmRecord("vm1", 3, 0, 1, "dsn", latency),
        ))
        assert emit_json(report) == report_json_by_dumps(report).encode()

    def test_no_records(self):
        report = dataclasses.replace(hand_built_report(), records=())
        text = emit_json(report)
        assert text == report_json_by_dumps(report).encode()
        assert b'"records": [], ' in text


class TestRecordsCsv:
    """records.csv quotes a vm_id where CSV needs it, so each row reads
    back as six fields; plain ids keep their unquoted bytes."""

    def test_ids_that_need_quoting_read_back(self, tmp_path):
        ids = ["vm,1", 'say "hi"', "two\nlines", "cr\rid", "plain"]
        report = dataclasses.replace(hand_built_report(), records=tuple(
            VmRecord(vm_id, i, 0, 1, "dsn", 0.001) for i, vm_id in enumerate(ids)
        ))
        emit(report, "csv", tmp_path)
        with open(tmp_path / "records.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["vm_id", "time", "machine_id", "k", "mode", "alloc_latency_ms"]
        assert [row[0] for row in rows[1:]] == ids
        assert all(len(row) == 6 for row in rows)

    def test_plain_ids_are_not_quoted(self, tmp_path):
        emit(make_report([1, 4], latencies=[0.002, 0.25]), "csv", tmp_path)
        assert (tmp_path / "records.csv").read_text(encoding="utf-8") == (
            "vm_id,time,machine_id,k,mode,alloc_latency_ms\n"
            "vm0,0,0,1,dsn,2.0\nvm1,1,0,4,fallback,250.0\n"
        )
