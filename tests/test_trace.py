import csv
import dataclasses
import io
import json
import math
import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from dsegsim.trace import (
    DEFAULT_FLAVORS,
    MAX_MACHINES,
    MAX_RAM_BYTES,
    MAX_TIME,
    MAX_VMS,
    Distribution,
    EventKind,
    FleetSpec,
    Generation,
    SNAPSHOT_HEADER,
    TRACE_HEADER,
    SnapshotRecord,
    TraceFormatError,
    VmEvent,
    build_fleet,
    default_fleet_spec,
    derive_bootstorm,
    gen_synthetic,
    generation_counts,
    load_fleet_spec,
    parse_snapshot,
    parse_trace,
    serialize_trace,
    start_event,
    stop_event,
)
from dsegsim.scheduler import MachineView
from dsegsim.segments import AllocationPolicy, allocate, new_machine, release
from oracle import parse_trace_by_field

GIB = 1 << 30


class TestParseTrace:
    def test_start_row(self):
        events = parse_trace("vm1,start,0,2,4294967296\n")
        assert events == [start_event("vm1", 0, 2, 4 * GIB)]

    def test_stop_row_short_and_padded(self):
        assert parse_trace("vm1,stop,100\n") == [stop_event("vm1", 100)]
        assert parse_trace("vm1,stop,100,,\n") == [stop_event("vm1", 100)]

    def test_header_is_optional(self):
        text = "vm_id,kind,time,cores,memory_bytes\nvm1,start,0,1,1024\n"
        assert len(parse_trace(text)) == 1

    def test_negative_memory_reports_line(self):
        with pytest.raises(TraceFormatError) as exc:
            parse_trace("vm1,start,0,2,4096\nvm2,start,5,2,-4096\n")
        assert str(exc.value).startswith("line 2: ")

    def test_duplicate_start_rejected(self):
        with pytest.raises(TraceFormatError) as exc:
            parse_trace("vm1,start,0,1,4096\nvm1,start,9,1,4096\n")
        assert "duplicate" in str(exc.value)

    def test_restart_after_stop_accepted(self):
        text = "vm1,start,0,1,4096\nvm1,stop,10\nvm1,start,20,2,8192\n"
        events = parse_trace(text)
        assert [(e.kind, e.time) for e in events] == [
            (EventKind.START, 0), (EventKind.STOP, 10), (EventKind.START, 20),
        ]

    def test_start_while_live_rejected_at_its_line(self):
        with pytest.raises(TraceFormatError) as exc:
            parse_trace("vm1,start,0,1,4096\nvm1,stop,10\nvm1,start,5,1,4096\n")
        assert str(exc.value).startswith("line 3: ")
        assert "duplicate" in str(exc.value)

    def test_a_time_past_the_bound_reports_its_line(self):
        """Times stop below 2**53, where every integer is exact as a float."""
        assert parse_trace(f"vm1,start,0,1,4096\nvm1,stop,{MAX_TIME}\n")[1].time == 2**53 - 1
        with pytest.raises(TraceFormatError) as exc:
            parse_trace(f"vm1,start,0,1,4096\nvm1,stop,{MAX_TIME + 1}\n")
        assert str(exc.value) == "line 2: time must be below 2**53"
        with pytest.raises(ValueError, match=r"^time must be below 2\*\*53$"):
            start_event("vm1", MAX_TIME + 1, 1, 4096)

    def test_stop_replays_before_a_start_at_the_same_time(self):
        text = "vm1,start,0,1,4096\nvm1,start,10,1,4096\nvm1,stop,10\n"
        assert len(parse_trace(text)) == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_trace("vm1,reboot,0,1,4096\n")

    def test_stop_with_payload_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_trace("vm1,stop,3,1,4096\n")

    def test_zero_cores_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_trace("vm1,start,0,0,4096\n")

    @pytest.mark.parametrize(
        "time,cores,memory",
        [(0, 0, GIB), (0, -1, GIB), (0, 1, 0), (0, 1, -1), (-1, 1, GIB)],
        ids=["cores=0", "cores=-1", "memory_bytes=0", "memory_bytes=-1", "time=-1"],
    )
    def test_library_and_parser_reject_the_same_starts(self, time, cores, memory):
        with pytest.raises(ValueError) as built:
            start_event("vm2", time, cores, memory)
        assert not isinstance(built.value, TraceFormatError)
        with pytest.raises(TraceFormatError) as parsed:
            parse_trace(f"vm1,start,0,1,4096\nvm2,start,{time},{cores},{memory}\n")
        assert str(parsed.value) == f"line 2: {built.value}"
        if time == 0:  # a snapshot's VMs all start at time 0
            with pytest.raises(ValueError) as derived:
                derive_bootstorm([SnapshotRecord("vm2", cores, memory)], 3600)
            assert str(derived.value) == str(built.value)

    @pytest.mark.parametrize(
        "args",
        [
            ("b", EventKind.START, 1.5, 1, GIB),
            ("b", EventKind.START, True, 1, GIB),
            ("b", EventKind.STOP, 5.0),
            ("b", EventKind.START, 0, 1.0, GIB),
            ("b", EventKind.START, 0, True, GIB),
            ("b", EventKind.START, 0, 1, float(GIB)),
            ("b", EventKind.START, 0),
            ("b", EventKind.START, 0, 1),
            ("b", EventKind.STOP, 5, 2, GIB),
            ("b", EventKind.STOP, 5, None, GIB),
            ("b", EventKind.STOP, 5, 0),
        ],
        ids=[
            "float-time", "bool-time", "float-stop-time", "float-cores", "bool-cores",
            "float-memory_bytes", "start-without-cores", "start-without-memory_bytes",
            "stop-with-cores-and-memory", "stop-with-memory", "stop-with-zero-cores",
        ],
    )
    def test_event_holds_only_what_a_row_can(self, args):
        """No row parses to a non-integer time, cores or memory_bytes, nor
        to a start without them or a stop with them; no event holds one."""
        with pytest.raises(ValueError) as built:
            VmEvent(*args)
        assert not isinstance(built.value, TraceFormatError)

    def test_events_sorted_by_time_stable(self):
        text = "b,start,5,1,4096\na,start,2,1,4096\nc,start,5,1,8192\n"
        events = parse_trace(text)
        assert [e.vm_id for e in events] == ["a", "b", "c"]

    def test_round_trip_is_byte_identical(self):
        events = [
            start_event("vm1", 0, 2, 4 * GIB),
            stop_event("vm1", 100),
            start_event("vm2", 100, 1, GIB),
        ]
        text = serialize_trace(events)
        assert serialize_trace(parse_trace(text)) == text


# ids that CSV must quote: a comma, a quote, a line feed, a carriage return
QUOTED_IDS = ("vm,1", 'say "hi"', "two\nlines", "cr\rid", 'a,"\r\nb')


class TestQuotedIds:
    """A vm_id that ``parse_trace`` accepts in quotes is written back in
    quotes, so the trace parses to the same events; plain ids keep their
    unquoted bytes."""

    def test_round_trip(self):
        events = [start_event(vm_id, i, 1, GIB) for i, vm_id in enumerate(QUOTED_IDS)]
        events += [stop_event(vm_id, 10 + i) for i, vm_id in enumerate(QUOTED_IDS)]
        text = serialize_trace(events)
        assert parse_trace(text) == events
        assert serialize_trace(parse_trace(text)) == text

    @pytest.mark.parametrize("vm_id", QUOTED_IDS)
    def test_one_quoted_id_among_plain_ones(self, vm_id):
        events = [start_event("vm0", 0, 1, GIB), start_event(vm_id, 1, 2, 2 * GIB),
                  stop_event(vm_id, 5), stop_event("vm0", 6)]
        text = serialize_trace(events)
        assert parse_trace(text) == events
        assert [len(row) for row in csv.reader(io.StringIO(text))] == [5] * 5

    def test_plain_ids_are_not_quoted(self):
        events = [start_event("vm1", 0, 2, 4 * GIB), stop_event("vm1", 100)]
        assert serialize_trace(events) == (
            f"vm_id,kind,time,cores,memory_bytes\nvm1,start,0,2,{4 * GIB}\nvm1,stop,100,,\n"
        )


def trace_cases():
    """(trace text, then for a rejected trace the line and the message of its
    TraceFormatError, for an accepted one None twice): one case per way a row
    can be rejected for its format, and the accepted forms."""
    header, good = ",".join(TRACE_HEADER), f"vm1,start,0,2,{2 * GIB}"
    yield pytest.param(f"{header}\n{good}\nvm1,stop,10\n", None, None, id="with-header")
    yield pytest.param(f"{good}\nvm1,stop,10,,\n", None, None, id="padded-stop")
    yield pytest.param(
        f"vm1,START,0,2,{2 * GIB}\nvm1,Stop,10\n", None, None, id="upper-case-kind"
    )
    for row in ("vm2,start", "vm2,start,5,1", "vm2,start,5,1,4096,"):
        fields = row.count(",") + 1
        yield pytest.param(
            f"{good}\n{row}\n", 2, f"expected 3 or 5 fields, got {fields}",
            id=f"{fields}-fields",
        )
    yield pytest.param(f"{good}\n ,start,5,1,4096\n", 2, "empty vm_id", id="empty-vm_id")
    for i, name in enumerate(("time", "cores", "memory_bytes")):
        for value in ("x", "1.5"):
            row = ["vm2", "start", "5", "1", "4096"]
            row[2 + i] = value
            yield pytest.param(
                f"{header}\n{good}\n{','.join(row)}\n", 3, f"bad {name} in {row!r}",
                id=f"{name}={value}",
            )
    yield pytest.param(
        f"{good}\nvm1,stop,x\n", 2, f"bad time in {['vm1', 'stop', 'x']!r}",
        id="stop-time=x",
    )
    yield pytest.param(
        f"{good}\nvm2,start,5\n", 2, "start row needs cores and memory_bytes",
        id="3-field-start",
    )
    for payload in ("1,", ",4096", "1,4096"):
        yield pytest.param(
            f"{good}\nvm1,stop,10,{payload}\n", 2,
            "stop row must leave cores and memory empty", id=f"stop-with-{payload}",
        )
    yield pytest.param(
        f"{good}\nvm2,reboot,5,1,4096\n", 2, "unknown event kind 'reboot'",
        id="unknown-kind",
    )
    # the time is checked before the kind
    yield pytest.param(
        f"{good}\nvm2,reboot,x\n", 2, f"bad time in {['vm2', 'reboot', 'x']!r}",
        id="unknown-kind-time=x",
    )
    # a row is numbered by the file line it begins on, past an earlier row's
    # quoted line break, in the errors of a row and of a duplicate start alike
    yield pytest.param(
        '"a\nb",start,0,1,4096\nvm2,start,x,1,4096\n', 3,
        f"bad time in {['vm2', 'start', 'x', '1', '4096']!r}", id="after-a-quoted-line-break",
    )
    yield pytest.param(
        '"a\nb",start,0,1,4096\nvm2,start,0,1,4096\n"c\n\nd",stop,1\nvm2,start,1,1,4096\n',
        7, "duplicate start for vm 'vm2'", id="duplicate-start-after-quoted-line-breaks",
    )


class TestTraceFormat:
    @pytest.mark.parametrize("text,line,reason", trace_cases())
    def test_accepted_format(self, text, line, reason):
        if line is None:
            assert parse_trace(text) == [
                start_event("vm1", 0, 2, 2 * GIB), stop_event("vm1", 10),
            ]
        else:
            with pytest.raises(TraceFormatError, match=f"^line {line}: ") as exc:
                parse_trace(text)
            assert str(exc.value) == f"line {line}: {reason}"


# field values near a valid row's: valid and invalid integers, padded and
# signed ones, kinds in any case, unknown kinds, ids that need quoting (one
# holding a line break, which moves later rows' line numbers) or strip to
# nothing
NEAR_IDS = ("vm1", "vm2", " vm1 ", "", " ", "a,b", 'q"x', "l\nb")
NEAR_KINDS = ("start", "stop", "START", " Stop ", "reboot", "")
NEAR_INTS = (*(str(i) for i in range(-2, 10)), "x", "", " 3 ", "1.5", "+2", "1_0", "\u0663")
NEAR_WIDTHS = (3, 3, 5, 5, 5, 2, 4, 6)


def near_valid_trace(pick, rows):
    """CSV text of ``rows`` rows, each a valid start or stop of one of a
    few VMs or a row of two to six fields, mostly three or five, whose
    values ``pick`` chooses from the lists above."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for _ in range(rows):
        vm_id, time = pick(("vm1", "vm2", "a,b")), pick(range(10))
        shape = pick(("start", "stop", "padded stop", "near", "near", "near"))
        if shape == "start":
            row = [vm_id, "start", time, pick(range(1, 4)), pick((4096, 8192))]
        elif shape == "stop":
            row = [vm_id, "stop", time]
        elif shape == "padded stop":
            row = [vm_id, "stop", time, "", ""]
        else:
            row = [pick(NEAR_IDS), pick(NEAR_KINDS), *(pick(NEAR_INTS) for _ in range(4))]
            row = row[: pick(NEAR_WIDTHS)]
        writer.writerow(row)
    return out.getvalue()


@st.composite
def near_valid_traces(draw):
    header = ",".join(TRACE_HEADER) + "\n" if draw(st.booleans()) else ""
    pick = lambda values: draw(st.sampled_from(values))  # noqa: E731
    return header + near_valid_trace(pick, draw(st.integers(1, 6)))


def parse_outcome(parse, text):
    """The events parsed, or the TraceFormatError's message."""
    try:
        return parse(text)
    except TraceFormatError as exc:
        return str(exc)


class TestParseMatchesTheFieldByFieldParser:
    """``parse_trace`` converts each field inline and builds the event with
    one constructor frame; it must return the events, or raise the error
    text, that converting one field at a time through ``_field_int`` does."""

    @settings(max_examples=600, deadline=None)
    @given(near_valid_traces())
    def test_same_events_or_same_error(self, text):
        assert parse_outcome(parse_trace, text) == parse_outcome(parse_trace_by_field, text)

    def test_near_valid_rows_reach_each_outcome(self):
        """Rows drawn from the same values reach accepted traces and every
        kind of error, the time-before-kind precedence among them."""
        rng = random.Random(5)
        outcomes = [
            parse_outcome(parse_trace_by_field, near_valid_trace(rng.choice, rng.randint(1, 6)))
            for _ in range(3000)
        ]
        errors = " ".join(o for o in outcomes if isinstance(o, str))
        assert sum(isinstance(o, list) and len(o) > 1 for o in outcomes) > 20
        for reason in ("expected 3 or 5 fields", "empty vm_id", "bad time", "bad cores",
                       "bad memory_bytes", "start row needs", "stop row must",
                       "unknown event kind", "must be", "negative time", "duplicate start"):
            assert reason in errors, reason
        assert any(o.endswith("'reboot', 'x']") for o in outcomes if isinstance(o, str))


def snapshot_row(vm_id="vm1", **values):
    """A snapshot row of a 2-core, 2 GiB VM on a 128 GiB, 24-core host."""
    row = dict(zip(SNAPSHOT_HEADER, (vm_id, 2, 2 * GIB, "h1", 128 * GIB, 24)), **values)
    return ",".join(str(v) for v in row.values())


def snapshot_cases():
    """(snapshot text, the line a TraceFormatError names or None if accepted)."""
    header, good = ",".join(SNAPSHOT_HEADER), snapshot_row()
    yield pytest.param(f"{header}\n{good}\n", None, id="with-header")
    yield pytest.param(f"{good}\n", None, id="without-header")
    fields = snapshot_row("vm2").split(",")
    yield pytest.param(f"{good}\n{','.join(fields[:5])}\n", 2, id="5-fields")
    yield pytest.param(f"{good}\n{','.join(fields + ['x'])}\n", 2, id="7-fields")
    for name in ("cores", "memory_bytes", "host_ram_bytes", "host_cores"):
        for value in ("x", "1.5", "0", "-1"):
            row = snapshot_row("vm2", **{name: value})
            yield pytest.param(f"{header}\n{good}\n{row}\n", 3, id=f"{name}={value}")
    yield pytest.param(f"{good}\n{snapshot_row(' ')}\n", 2, id="empty-vm_id")
    yield pytest.param(f"{good}\n{good}\n", 2, id="repeated-vm_id")
    # a record is numbered by the file line it begins on
    yield pytest.param(f'{header}\n"a\nb",1,4096,h,8192,2\n{snapshot_row("vm2", cores="x")}\n',
                       4, id="after-a-quoted-line-break")


class TestParseSnapshot:
    @pytest.mark.parametrize("text,line", snapshot_cases())
    def test_accepted_format(self, text, line):
        if line is None:
            assert parse_snapshot(text) == [SnapshotRecord("vm1", 2, 2 * GIB)]
        else:
            with pytest.raises(TraceFormatError, match=f"^line {line}: "):
                parse_snapshot(text)


class TestBootstorm:
    SNAP = [
        SnapshotRecord("vmB", 2, 2 * GIB),
        SnapshotRecord("vmA", 1, GIB),
        SnapshotRecord("vmC", 4, 8 * GIB),
    ]

    def test_all_start_at_zero_then_stop_at_horizon(self):
        events = derive_bootstorm(self.SNAP, horizon=3600)
        assert [(e.vm_id, e.kind, e.time) for e in events] == [
            ("vmA", EventKind.START, 0),
            ("vmB", EventKind.START, 0),
            ("vmC", EventKind.START, 0),
            ("vmA", EventKind.STOP, 3600),
            ("vmB", EventKind.STOP, 3600),
            ("vmC", EventKind.STOP, 3600),
        ]

    def test_empty_snapshot(self):
        assert derive_bootstorm([], 3600) == []

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_below_one_second_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            derive_bootstorm(self.SNAP, horizon)

    def test_one_second_horizon_stops_after_the_starts(self):
        events = derive_bootstorm(self.SNAP, 1)
        assert [e.time for e in events] == [0, 0, 0, 1, 1, 1]

    def test_sizes_preserved_verbatim(self):
        events = derive_bootstorm(self.SNAP, 60)
        by_vm = {e.vm_id: e for e in events if e.kind is EventKind.START}
        for rec in self.SNAP:
            assert by_vm[rec.vm_id].memory_bytes == rec.memory_bytes
            assert by_vm[rec.vm_id].cores == rec.cores


class TestGenSynthetic:
    def test_distinct_size_count_equals_flavor_cardinality(self):
        events = gen_synthetic(
            10_000, DEFAULT_FLAVORS, Distribution.exponential(100),
            Distribution.exponential(3600), seed=1,
        )
        sizes = {e.memory_bytes for e in events if e.kind is EventKind.START}
        assert len(sizes) == len(DEFAULT_FLAVORS) == 14

    def test_zero_vms(self):
        assert gen_synthetic(0, DEFAULT_FLAVORS, Distribution("fixed", 1), None, 0) == []

    def test_same_seed_reproduces(self):
        args = (500, DEFAULT_FLAVORS, Distribution.exponential(60),
                Distribution("uniform", 100, 1000))
        assert gen_synthetic(*args, seed=9) == gen_synthetic(*args, seed=9)

    def test_arrival_only_trace_has_no_stops(self):
        events = gen_synthetic(50, DEFAULT_FLAVORS, Distribution("fixed", 10), None, 4)
        assert all(e.kind is EventKind.START for e in events)
        assert len(events) == 50

    def test_every_start_has_a_later_stop(self):
        events = gen_synthetic(
            200, DEFAULT_FLAVORS, Distribution.exponential(5),
            Distribution.exponential(50), seed=2,
        )
        stops = {e.vm_id: e.time for e in events if e.kind is EventKind.STOP}
        for e in events:
            if e.kind is EventKind.START:
                assert stops[e.vm_id] > e.time

    def test_times_non_decreasing(self):
        events = gen_synthetic(
            300, DEFAULT_FLAVORS, Distribution.exponential(10),
            Distribution.exponential(100), seed=3,
        )
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_invalid_distribution_params(self):
        with pytest.raises(ValueError):
            Distribution.exponential(0)
        with pytest.raises(ValueError):
            Distribution("uniform", 5, 1)
        with pytest.raises(ValueError):
            Distribution("weibull", 1.0)
        with pytest.raises(ValueError):
            Distribution.parse("exp")

    @pytest.mark.parametrize("kind,params", [
        ("fixed", (math.nan,)), ("fixed", (math.inf,)),
        ("uniform", (0.0, math.inf)), ("uniform", (math.nan, 1.0)),
        ("exponential", (math.inf,)), ("exponential", (math.nan,)),
    ])
    def test_non_finite_distribution_params(self, kind, params):
        with pytest.raises(ValueError, match="needs finite parameters"):
            Distribution(kind, *params)


class TestHeavyTailedDistributions:
    def test_parse(self):
        lognormal = Distribution.parse("lognormal:20000:1.5")
        pareto = Distribution.parse("pareto:300:2")
        assert (lognormal.kind, lognormal.params) == ("lognormal", (20000.0, 1.5))
        assert (pareto.kind, pareto.params) == ("pareto", (300.0, 2.0))

    def test_samples_are_the_stdlib_variates(self):
        a, b = random.Random(5), random.Random(5)
        lognormal = Distribution.parse("lognormal:20000:1.5")
        pareto = Distribution.parse("pareto:300:2")
        for _ in range(100):
            assert lognormal.sample(a) == b.lognormvariate(math.log(20000), 1.5)
            assert pareto.sample(a) == 300 * b.paretovariate(2)

    def test_support_and_median(self):
        rng = random.Random(6)
        lognormal = [Distribution("lognormal", 500.0, 1.0).sample(rng) for _ in range(4001)]
        pareto = [Distribution("pareto", 300.0, 1.5).sample(rng) for _ in range(4001)]
        assert min(lognormal) > 0
        assert 450 < statistics.median(lognormal) < 550
        assert min(pareto) >= 300
        assert Distribution("lognormal", 42.0, 0.0).sample(rng) == pytest.approx(42.0)

    @pytest.mark.parametrize("kind,params", [
        ("lognormal", (0.0, 1.0)), ("lognormal", (-5.0, 1.0)), ("lognormal", (10.0, -0.5)),
        ("lognormal", (10.0,)), ("lognormal", (10.0, 1.0, 2.0)),
        ("pareto", (0.0, 1.0)), ("pareto", (-1.0, 1.0)), ("pareto", (10.0, 0.0)),
        ("pareto", (10.0, -2.0)), ("pareto", (10.0,)),
    ])
    def test_bad_parameters_rejected(self, kind, params):
        with pytest.raises(ValueError, match=f"{kind} distribution needs"):
            Distribution(kind, *params)

    @pytest.mark.parametrize("kind,params", [
        ("lognormal", (math.inf, 1.0)), ("lognormal", (10.0, math.nan)),
        ("pareto", (math.nan, 1.0)), ("pareto", (10.0, math.inf)),
    ])
    def test_non_finite_parameters_rejected(self, kind, params):
        with pytest.raises(ValueError, match="needs finite parameters"):
            Distribution(kind, *params)

    def test_seeded_traces_reproduce(self):
        for lifetime in ("lognormal:20000:1.5", "pareto:1000:1.2"):
            args = (300, DEFAULT_FLAVORS, Distribution.exponential(60),
                    Distribution.parse(lifetime))
            assert gen_synthetic(*args, seed=9) == gen_synthetic(*args, seed=9)
            assert gen_synthetic(*args, seed=9) != gen_synthetic(*args, seed=10)

    @pytest.mark.parametrize("arrival,lifetime", [
        ("exp:1e308", None), ("fixed:1e308", None), ("exp:10", "lognormal:20000:800"),
        ("fixed:4503599627370496", None), ("fixed:1", f"fixed:{2**53 - 2}"),
    ])
    def test_a_time_beyond_any_float_is_a_value_error(self, arrival, lifetime):
        with pytest.raises(ValueError, match="sampled time overflows"):
            gen_synthetic(
                50, DEFAULT_FLAVORS, Distribution.parse(arrival),
                lifetime and Distribution.parse(lifetime), seed=1,
            )


class TestVmCountBound:
    def test_a_count_past_the_bound_raises_before_anything_is_drawn(self, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("drew a value")

        monkeypatch.setattr(random.Random, "choices", draw)
        for count in (MAX_VMS + 1, 10**20, -1):
            with pytest.raises(ValueError, match=r"vm_count must be between 0 and 10\*\*7"):
                gen_synthetic(count, DEFAULT_FLAVORS, Distribution.exponential(1), None, seed=1)


class TestFleet:
    def test_reference_fleet_five_generations_in_equal_shares(self):
        spec = default_fleet_spec(100)
        machines = build_fleet(spec)
        assert len(machines) == 100
        assert generation_counts(spec) == [20, 20, 20, 20, 20]
        by_shape = {}
        for m in machines:
            shape = (m.free_list.total_bytes, m.cores_free)
            by_shape[shape] = by_shape.get(shape, 0) + 1
        # Gen4 and Gen6 share 192 GiB but differ in cores
        assert by_shape == {
            (128 * GIB, 24): 20,
            (192 * GIB, 24): 20,
            (256 * GIB, 40): 20,
            (192 * GIB, 48): 20,
            (512 * GIB, 32): 20,
        }

    def test_single_machine_single_generation(self):
        spec = FleetSpec((Generation("only", 64 * GIB, 8, 100.0),), 1)
        machines = build_fleet(spec)
        assert len(machines) == 1
        assert machines[0].cores_free == 8

    def test_largest_remainder_rounding(self):
        spec = FleetSpec(
            (Generation("a", GIB, 1, 60.0), Generation("b", GIB, 1, 40.0)), 5
        )
        assert generation_counts(spec) == [3, 2]

    def test_rounding_with_fractional_remainders(self):
        spec = FleetSpec(
            (
                Generation("a", GIB, 1, 50.0),
                Generation("b", GIB, 1, 30.0),
                Generation("c", GIB, 1, 20.0),
            ),
            7,
        )
        counts = generation_counts(spec)
        assert sum(counts) == 7
        exact = [3.5, 2.1, 1.4]
        for count, want in zip(counts, exact):
            assert abs(count - want) < 1

    def test_bad_proportions_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec((Generation("a", GIB, 1, 70.0),), 3)

    def test_machine_count_is_bounded_at_a_million(self):
        # a spec only: no fleet is built
        assert MAX_MACHINES == 10**6
        assert default_fleet_spec(MAX_MACHINES).machine_count == MAX_MACHINES
        with pytest.raises(ValueError, match="machine_count must be between 1 and 10"):
            default_fleet_spec(MAX_MACHINES + 1)

    def test_ram_bytes_is_bounded_at_64_tib(self):
        assert MAX_RAM_BYTES == 64 << 40
        assert Generation("big", MAX_RAM_BYTES, 8, 100.0).ram_bytes == MAX_RAM_BYTES
        for ram in (MAX_RAM_BYTES + 1, MAX_RAM_BYTES + 4096, 2**100):
            with pytest.raises(ValueError, match="ram_bytes exceeds 2\\*\\*46"):
                Generation("big", ram, 8, 100.0)

    @staticmethod
    def fleet_machine_by_machine(spec):
        """The fleet as one ``new_machine`` per machine builds it."""
        machines = []
        for gen, count in zip(spec.generations, generation_counts(spec)):
            for _ in range(count):
                flist = new_machine(gen.ram_bytes, spec.reserved_bytes, len(machines))
                machines.append(MachineView(len(machines), gen.cores, flist))
        return machines

    @pytest.mark.parametrize("spec", [
        default_fleet_spec(23),
        default_fleet_spec(40, reserved_bytes=GIB),
        # rounding gives "b" and "c" no machine; "b" alone could not be built,
        # since its 4 KiB leave no whole page above the 5000-byte reservation
        FleetSpec((Generation("a", 2 * GIB, 4, 90.0), Generation("b", 4096, 1, 5.0),
                   Generation("c", GIB, 2, 5.0)), 3, reserved_bytes=5000),
        # a reservation that is not page-aligned
        FleetSpec((Generation("a", GIB + 6000, 2, 50.0), Generation("b", 3 * GIB, 8, 50.0)),
                  7, reserved_bytes=12345),
    ])
    def test_template_copies_equal_a_machine_by_machine_build(self, spec):
        got = build_fleet(spec)
        # MachineView and FreeSegmentList compare every field: ids, cores,
        # total and reserved bytes, both columns and both counters
        assert got == self.fleet_machine_by_machine(spec)
        for m in got:
            m.free_list.check_invariants()

    def test_no_two_machines_share_a_column(self):
        machines = build_fleet(default_fleet_spec(10, reserved_bytes=5000))
        before = [(m.free_list.bases.copy(), m.free_list.sizes.copy()) for m in machines]
        flist = machines[3].free_list  # copied from the template machine 2 was copied from
        granted = allocate(flist, "vm", GIB + 4096, AllocationPolicy.SMALLEST_FIRST)
        after = [(m.free_list.bases, m.free_list.sizes) for m in machines]
        assert after[3] != before[3]
        assert after[:3] + after[4:] == before[:3] + before[4:]
        release(flist, granted)
        assert [(m.free_list.bases, m.free_list.sizes) for m in machines] == before

    def test_machine_ids_are_dense_and_ordered(self):
        machines = build_fleet(default_fleet_spec(23))
        assert [m.machine_id for m in machines] == list(range(23))

    def test_json_round_trip(self, tmp_path):
        spec = default_fleet_spec(40, reserved_bytes=GIB)
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(dataclasses.asdict(spec)))
        assert load_fleet_spec(path) == spec

    @pytest.mark.parametrize("field", ["machine_count", "reserved_bytes", "ram_bytes", "cores"])
    @pytest.mark.parametrize("value", [20.7, 2.0, True, False, "20", None])
    def test_counts_and_sizes_must_be_json_integers(self, tmp_path, field, value):
        data = dataclasses.asdict(default_fleet_spec(20))
        if field in data:
            data[field] = value
        else:
            data["generations"][1][field] = value
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"bad fleet spec .*{field} must be an integer"):
            load_fleet_spec(path)

    def test_proportion_may_be_an_integer_or_a_float(self, tmp_path):
        data = dataclasses.asdict(default_fleet_spec(20))
        data["generations"][0]["proportion"] = 20
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(data))
        assert load_fleet_spec(path) == default_fleet_spec(20)

    @pytest.mark.parametrize("value", ["20", True, None, math.nan, math.inf, 10**400])
    def test_proportion_must_be_a_finite_json_number(self, tmp_path, value):
        data = dataclasses.asdict(default_fleet_spec(20))
        data["generations"][0]["proportion"] = value
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="bad fleet spec"):
            load_fleet_spec(path)

    def test_bad_fleet_file_rejected(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text('{"machine_count": 3}')
        with pytest.raises(ValueError):
            load_fleet_spec(path)
