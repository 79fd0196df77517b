import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dsegsim
from dsegsim import cli
from dsegsim.cli import COMMANDS, EXIT_ANOMALIES, EXIT_OK, EXIT_PARSE, EXIT_USAGE, build_parser, main
from dsegsim.trace import default_fleet_spec, load_fleet_spec

GIB = 1 << 30


@pytest.fixture
def fleet_file(tmp_path):
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps(dataclasses.asdict(default_fleet_spec(5))))
    return path


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        "vm_id,kind,time,cores,memory_bytes\n"
        f"vm1,start,0,2,{4 * GIB}\n"
        f"vm2,start,10,1,{GIB}\n"
        "vm1,stop,100,,\n"
    )
    return path


class TestReplay:
    def test_valid_inputs_exit_zero(self, tmp_path, fleet_file, trace_file, capsys):
        code = main([
            "replay", "--trace", str(trace_file), "--fleet", str(fleet_file),
            "--variant", "opt1", "--out", str(tmp_path / "out"),
            "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["placed"] == 2
        out = capsys.readouterr().out
        assert "placed 2/2" in out

    def test_missing_file_reports_and_fails(self, fleet_file, capsys):
        code = main(["replay", "--trace", "/nonexistent.csv", "--fleet", str(fleet_file)])
        assert code == EXIT_PARSE
        assert "error" in capsys.readouterr().err

    def test_malformed_trace_line_number(self, tmp_path, fleet_file, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("vm1,start,0,2,4096\nvm2,start,oops,1,4096\n")
        code = main(["replay", "--trace", str(bad), "--fleet", str(fleet_file)])
        assert code == EXIT_PARSE
        assert "line 2" in capsys.readouterr().err

    def test_anomaly_threshold(self, tmp_path, fleet_file, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text(f"vm1,start,0,1,{GIB}\nghost,stop,5,,\n")
        code = main([
            "replay", "--trace", str(trace), "--fleet", str(fleet_file),
            "--out", str(tmp_path / "o1"),
        ])
        assert code == EXIT_ANOMALIES
        code = main([
            "replay", "--trace", str(trace), "--fleet", str(fleet_file),
            "--out", str(tmp_path / "o2"), "--max-anomalies", "1",
        ])
        assert code == EXIT_OK

    def test_negative_max_anomalies_is_a_usage_error(
        self, tmp_path, fleet_file, trace_file, capsys
    ):
        out = tmp_path / "out"
        code = main([
            "replay", "--trace", str(trace_file), "--fleet", str(fleet_file),
            "--max-anomalies", "-1", "--out", str(out),
        ])
        assert code == EXIT_USAGE
        assert "--max-anomalies must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("machine_count", 20.7), ("cores", 2.9), ("ram_bytes", True)],
    )
    def test_non_integer_fleet_count_is_a_usage_error(
        self, tmp_path, trace_file, capsys, field, value
    ):
        spec = dataclasses.asdict(default_fleet_spec(5))
        if field in spec:
            spec[field] = value
        else:
            spec["generations"][0][field] = value
        fleet = tmp_path / "fleet.json"
        fleet.write_text(json.dumps(spec))
        out = tmp_path / "out"
        code = main([
            "replay", "--trace", str(trace_file), "--fleet", str(fleet), "--out", str(out),
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "bad fleet spec" in err and f"{field} must be an integer" in err
        assert not out.exists()

    def test_fleet_too_large_for_a_float_is_a_usage_error(
        self, tmp_path, trace_file, capsys
    ):
        spec = dataclasses.asdict(default_fleet_spec(5))
        spec["machine_count"] = 10**400
        fleet = tmp_path / "fleet.json"
        fleet.write_text(json.dumps(spec))
        out = tmp_path / "out"
        code = main([
            "replay", "--trace", str(trace_file), "--fleet", str(fleet), "--out", str(out),
        ])
        assert code == EXIT_USAGE
        assert "machine_count" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def fleet_with(tmp_path, machine_count=5, ram_bytes=None):
        """The default fleet as JSON, its first generation's RAM replaced."""
        spec = dataclasses.asdict(default_fleet_spec(5))
        spec["machine_count"] = machine_count
        if ram_bytes is not None:
            spec["generations"][0]["ram_bytes"] = ram_bytes
        fleet = tmp_path / "fleet.json"
        fleet.write_text(json.dumps(spec))
        return fleet

    @pytest.mark.parametrize("variant", ["baseline", "opt1"])
    @pytest.mark.parametrize("ram_bytes", [2**100, 2**46 + 4096])
    def test_host_above_64_tib_is_a_usage_error(
        self, tmp_path, trace_file, capsys, variant, ram_bytes
    ):
        fleet = self.fleet_with(tmp_path, ram_bytes=ram_bytes)
        out = tmp_path / "out"
        code = main([
            "replay", "--trace", str(trace_file), "--fleet", str(fleet),
            "--variant", variant, "--out", str(out),
        ])
        assert code == EXIT_USAGE
        assert "ram_bytes exceeds 2**46 (64 TiB)" in capsys.readouterr().err
        assert not out.exists()

    def test_host_of_64_tib_loads(self, tmp_path):
        # loaded, not replayed: a baseline seed at the bound takes ~72 MB
        spec = load_fleet_spec(self.fleet_with(tmp_path, ram_bytes=2**46))
        assert spec.generations[0].ram_bytes == 2**46

    def test_fleet_above_a_million_machines_is_a_usage_error(
        self, tmp_path, trace_file, capsys
    ):
        fleet = self.fleet_with(tmp_path, machine_count=10**12)
        out = tmp_path / "out"
        code = main([
            "replay", "--trace", str(trace_file), "--fleet", str(fleet), "--out", str(out),
        ])
        assert code == EXIT_USAGE
        assert "machine_count must be between 1 and 10**6" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["baseline", "opt1", "opt2", "dynamic"])
    def test_no_whole_page_of_user_memory_is_a_usage_error(
        self, tmp_path, trace_file, capsys, variant
    ):
        # 4000 reserved bytes of 8000: the user region [4096, 4096) is empty
        fleet = tmp_path / "fleet.json"
        fleet.write_text(json.dumps({
            "machine_count": 1, "reserved_bytes": 4000,
            "generations": [{"name": "m", "ram_bytes": 8000, "cores": 2, "proportion": 100}],
        }))
        out = tmp_path / "out"
        code = main([
            "replay", "--trace", str(trace_file), "--fleet", str(fleet), "--out", str(out),
            "--variant", variant,
        ])
        assert code == EXIT_USAGE
        assert "page" in capsys.readouterr().err
        assert not out.exists()

    def test_tiny_reselection_period_over_a_long_gap_finishes(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text(f"vm1,start,0,1,{GIB}\nvm1,stop,100000,,\n")
        fleet = tmp_path / "fleet.json"
        fleet.write_text(json.dumps(dataclasses.asdict(default_fleet_spec(1))))
        out = tmp_path / "out"
        src = str(Path(dsegsim.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-m", "dsegsim.cli", "replay", "--trace", str(trace),
             "--fleet", str(fleet), "--variant", "dynamic", "--period-hours", "1e-6",
             "--out", str(out)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=20,
        )
        assert done.returncode == EXIT_OK, done.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["option_switches"] == [[0, "opt1"]]

    def test_n_below_one_is_a_usage_error(self, tmp_path, fleet_file, trace_file, capsys):
        code = main([
            "replay", "--trace", str(trace_file), "--fleet", str(fleet_file),
            "--n", "0", "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_USAGE
        assert "n must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("hours", ["nan", "inf", "0"])
    def test_period_not_finite_and_positive_is_a_usage_error(
        self, tmp_path, fleet_file, trace_file, capsys, hours
    ):
        code = main([
            "replay", "--trace", str(trace_file), "--fleet", str(fleet_file),
            "--period-hours", hours, "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_USAGE
        assert "reselect_period must be finite and positive" in capsys.readouterr().err

    def test_all_variants_run(self, tmp_path, fleet_file, trace_file):
        for variant in ("baseline", "opt1", "opt2", "dynamic"):
            out = tmp_path / variant
            code = main([
                "replay", "--trace", str(trace_file), "--fleet", str(fleet_file),
                "--variant", variant, "--out", str(out), "--format", "csv",
            ])
            assert code == EXIT_OK
            assert (out / "histogram.csv").exists()


class TestBootstorm:
    def test_snapshot_replay(self, tmp_path, fleet_file):
        snap = tmp_path / "snap.csv"
        snap.write_text(
            "vm_id,cores,memory_bytes,host_id,host_ram_bytes,host_cores\n"
            f"a,2,{2 * GIB},h1,{128 * GIB},24\n"
            f"b,1,{GIB},h1,{128 * GIB},24\n"
        )
        out = tmp_path / "out"
        code = main([
            "bootstorm", "--snapshot", str(snap), "--fleet", str(fleet_file),
            "--horizon-hours", "1", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads((out / "report.json").read_text())
        assert payload["placed"] == 2

    @pytest.mark.parametrize("hours", ["0", "0.0001", "inf", "-inf", "nan"])
    def test_horizon_out_of_range_is_a_usage_error(
        self, tmp_path, fleet_file, hours, capsys
    ):
        snap = tmp_path / "snap.csv"
        snap.write_text(f"a,2,{2 * GIB},h1,{128 * GIB},24\n")
        code = main([
            "bootstorm", "--snapshot", str(snap), "--fleet", str(fleet_file),
            f"--horizon-hours={hours}", "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_USAGE
        assert "horizon" in capsys.readouterr().err

    def test_bad_snapshot(self, tmp_path, fleet_file, capsys):
        snap = tmp_path / "snap.csv"
        snap.write_text("a,2,bad,h1,1,1\n")
        code = main(["bootstorm", "--snapshot", str(snap), "--fleet", str(fleet_file)])
        assert code == EXIT_PARSE


class TestGenTrace:
    def test_deterministic_for_a_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code = main([
                "gen-trace", "--vms", "200", "--seed", "5", "--out", str(out),
            ])
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_fourteen_distinct_sizes(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["gen-trace", "--vms", "2000", "--seed", "1", "--out", str(out)])
        sizes = {
            line.split(",")[4]
            for line in out.read_text().splitlines()[1:]
            if line.split(",")[1] == "start"
        }
        assert len(sizes) == 14

    def test_zero_vms_writes_empty_trace(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main(["gen-trace", "--vms", "0", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text() == "vm_id,kind,time,cores,memory_bytes\n"

    def test_bad_distribution_is_usage_error(self, tmp_path, capsys):
        code = main([
            "gen-trace", "--vms", "5", "--arrival", "weibull:3",
            "--out", str(tmp_path / "t.csv"),
        ])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flag,spec", [
        ("--arrival", "exp:inf"), ("--arrival", "fixed:nan"),
        ("--lifetime", "uniform:1:inf"),
    ])
    def test_non_finite_distribution_is_usage_error(self, tmp_path, capsys, flag, spec):
        code = main(["gen-trace", "--vms", "5", flag, spec, "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_USAGE
        assert "needs finite parameters" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("spec", ["lognormal:20000:1.5", "pareto:1000:1.5"])
    def test_heavy_tailed_lifetimes(self, tmp_path, spec):
        out = tmp_path / "t.csv"
        code = main(["gen-trace", "--vms", "50", "--lifetime", spec, "--out", str(out)])
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 101

    @pytest.mark.parametrize("flag,spec", [
        ("--lifetime", "lognormal:0:1"), ("--lifetime", "pareto:10:0"),
        ("--arrival", "lognormal:inf:1"), ("--lifetime", "lognormal:20000:800"),
        ("--arrival", "exp:1e308"),
    ])
    def test_bad_heavy_tailed_or_overflowing_distribution_is_usage_error(
        self, tmp_path, capsys, flag, spec
    ):
        code = main(["gen-trace", "--vms", "50", flag, spec, "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_flavor_file_with_integer_and_float_weights(self, tmp_path):
        flavors = tmp_path / "flavors.json"
        flavors.write_text(json.dumps([
            {"memory_bytes": GIB, "cores": 1, "weight": 3},
            {"memory_bytes": 2 * GIB, "cores": 2, "weight": 0.5},
            {"memory_bytes": 4 * GIB, "cores": 4},
        ]))
        out = tmp_path / "t.csv"
        code = main(["gen-trace", "--vms", "30", "--flavors", str(flavors), "--out", str(out)])
        assert code == EXIT_OK
        starts = [line.split(",") for line in out.read_text().splitlines() if ",start," in line]
        assert {row[4] for row in starts} == {str(GIB), str(2 * GIB), str(4 * GIB)}

    @pytest.mark.parametrize("field,value", [
        ("memory_bytes", 4294967296.9), ("memory_bytes", math.inf), ("memory_bytes", "1024"),
        ("cores", 2.7), ("cores", True), ("cores", None),
        ("weight", "3"), ("weight", True), ("weight", math.nan), ("weight", math.inf),
        ("weight", 10**400),
    ])
    def test_bad_flavor_field_is_a_usage_error(self, tmp_path, capsys, field, value):
        flavor = {"memory_bytes": 4 * GIB, "cores": 2, "weight": 1.0, field: value}
        flavors = tmp_path / "flavors.json"
        flavors.write_text(json.dumps([flavor]))
        out = tmp_path / "t.csv"
        code = main(["gen-trace", "--vms", "4", "--flavors", str(flavors), "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "bad flavor file" in err and field in err
        assert not out.exists()

    def test_string_fleet_proportion_is_a_usage_error(self, tmp_path, trace_file, capsys):
        spec = dataclasses.asdict(default_fleet_spec(5))
        for g in spec["generations"]:
            g["proportion"] = str(g["proportion"])
        fleet = tmp_path / "fleet.json"
        fleet.write_text(json.dumps(spec))
        code = main(["replay", "--trace", str(trace_file), "--fleet", str(fleet),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert "proportion must be a finite number" in capsys.readouterr().err


JSON_INPUTS = {
    "fleet spec": lambda path, tmp: [
        "replay", "--trace", str(tmp / "t.csv"), "--fleet", str(path), "--out", str(tmp / "out"),
    ],
    "flavor file": lambda path, tmp: [
        "gen-trace", "--vms", "4", "--flavors", str(path), "--out", str(tmp / "t.csv"),
    ],
    "register file": lambda path, tmp: [
        "translate", "--registers", str(path), "--gpa", "0x10",
    ],
}
BAD_JSON = {
    "fleet spec": ["{not json", "{}", "[]", '{"machine_count": 5, "generations": [{}]}'],
    "flavor file": ["[{not json", "[{}]", '{"cores": 1}', '[{"cores": 1}]'],
    "register file": ["{not json", "{}", "[]", '{"n": 2, "gb": [], "hb": [4096]}'],
}


class TestJsonInputs:
    """The fleet, flavor and register files share one rule: a missing file is
    an input error (exit 3); malformed JSON, a missing key or a value of the
    wrong shape is a usage error (exit 2) naming the file."""

    @pytest.mark.parametrize("kind", JSON_INPUTS)
    def test_missing_file_is_a_parse_error(self, tmp_path, capsys, kind):
        (tmp_path / "t.csv").write_text("vm1,start,0,1,4096\n")
        code = main(JSON_INPUTS[kind](tmp_path / "absent.json", tmp_path))
        assert code == EXIT_PARSE
        assert "cannot read input" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,text", [
        (kind, text) for kind, texts in BAD_JSON.items() for text in texts
    ])
    def test_malformed_file_is_a_usage_error(self, tmp_path, capsys, kind, text):
        (tmp_path / "t.csv").write_text("vm1,start,0,1,4096\n")
        path = tmp_path / "input.json"
        path.write_text(text)
        code = main(JSON_INPUTS[kind](path, tmp_path))
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"bad {kind} {path}" in captured.err and captured.out == ""
        assert not (tmp_path / "out").exists()


def bootstorm_argv(path, tmp):
    return ["bootstorm", "--snapshot", str(path), "--fleet", str(tmp / "fleet.json"),
            "--out", str(tmp / "out")]


# Each input file: the argv that reads it, with the other inputs valid; its
# text with a byte that is not UTF-8 on line 2; the exit code and the start
# of the error.
NON_UTF8_INPUTS = {
    "trace": (
        lambda path, tmp: ["replay", "--trace", str(path), "--fleet", str(tmp / "fleet.json"),
                           "--out", str(tmp / "out")],
        b"vm1,start,0,1,4096\nvm\xff,stop,1,,\n", EXIT_PARSE, "{path}: line 2: not UTF-8: ",
    ),
    "snapshot": (
        bootstorm_argv, b"vm1,1,4096,h,8192,2\nvm\xff,1,4096,h,8192,2\n", EXIT_PARSE,
        "{path}: line 2: not UTF-8: ",
    ),
    "counters": (
        lambda path, tmp: ["costmodel", "--counters", str(path), "--mode", "dsn"],
        b"c_1d = 100\n# \xff\n", EXIT_PARSE, "{path}: line 2: not UTF-8: ",
    ),
    **{
        kind: (argv, b'{"n": 1,\n"\xff": 0}', EXIT_USAGE, f"bad {kind} {{path}}: 'utf-8' codec")
        for kind, argv in JSON_INPUTS.items()
    },
}


class TestBadBytesAndPaths:
    """A byte that is not UTF-8 in any input file, an output path that cannot
    be written and a number past its bound each exit 2 or 3 with an error
    that names the file or the bound; none ends in a traceback."""

    @pytest.fixture
    def inputs(self, tmp_path, fleet_file):
        (tmp_path / "t.csv").write_text("vm1,start,0,1,4096\n")
        return tmp_path

    @pytest.mark.parametrize("kind", NON_UTF8_INPUTS)
    def test_input_that_is_not_utf8_names_the_file(self, inputs, capsys, kind):
        argv, data, exit_code, error = NON_UTF8_INPUTS[kind]
        path = inputs / "input"
        path.write_bytes(data)
        code = main(argv(path, inputs))
        captured = capsys.readouterr()
        assert code == exit_code and captured.out == ""
        assert captured.err.startswith("error: " + error.format(path=path))
        assert not (inputs / "out").exists()

    @pytest.mark.parametrize("command", ["replay", "bootstorm", "gen-trace"])
    def test_output_that_cannot_be_written_is_named_as_output(self, inputs, capsys, command):
        blocker = inputs / "file"
        blocker.write_text("")
        (inputs / "snap.csv").write_text("vm1,1,4096,h,8192,2\n")
        argv = {
            "replay": ["replay", "--trace", str(inputs / "t.csv"), "--fleet",
                       str(inputs / "fleet.json"), "--out", str(blocker)],
            "bootstorm": bootstorm_argv(inputs / "snap.csv", inputs)[:-1] + [str(blocker / "x")],
            "gen-trace": ["gen-trace", "--vms", "3", "--out", str(inputs)],
        }[command]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_PARSE and captured.out == ""
        assert captured.err.startswith("error: cannot write output: ")
        assert str(blocker if command != "gen-trace" else inputs) in captured.err

    def test_time_past_2_pow_53_is_a_parse_error_on_every_variant(self, inputs, capsys):
        (inputs / "t.csv").write_text(f"vm1,start,0,1,4096\nvm1,stop,{10**400},,\n")
        for variant in ("baseline", "dynamic"):
            code = main(["replay", "--trace", str(inputs / "t.csv"), "--fleet",
                         str(inputs / "fleet.json"), "--variant", variant,
                         "--out", str(inputs / "out")])
            assert code == EXIT_PARSE
            assert capsys.readouterr().err == (
                f"error: {inputs / 't.csv'}: line 2: time must be below 2**53\n"
            )

    def test_vm_count_past_the_bound_is_a_usage_error(self, tmp_path, capsys):
        code = main(["gen-trace", "--vms", str(10**20), "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: vm_count must be between 0 and 10**7\n"
        assert not (tmp_path / "t.csv").exists()


class TestTranslate:
    @pytest.fixture
    def registers_file(self, tmp_path):
        path = tmp_path / "regs.json"
        path.write_text(json.dumps({
            "n": 3,
            "gb": [0x8000_0000],
            "hb": [0x1_0000_0000, 0x3_0000_0000],
            "limit": 0x3_8000_0000,
        }))
        return path

    def test_translates_hex_gpa(self, registers_file, capsys):
        code = main(["translate", "--registers", str(registers_file),
                     "--gpa", "0x80002000"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "hpa 0x300002000"

    def test_violation_reported(self, registers_file, capsys):
        code = main(["translate", "--registers", str(registers_file),
                     "--gpa", str(4 * GIB)])
        assert code == EXIT_OK
        assert "violation" in capsys.readouterr().out

    def test_single_segment_offset(self, tmp_path, capsys):
        path = tmp_path / "regs.json"
        path.write_text(json.dumps({
            "n": 3, "gb": [], "hb": [0x4000_0000], "limit": 0x1_4000_0000,
        }))
        main(["translate", "--registers", str(path), "--gpa", "0x1000"])
        assert capsys.readouterr().out.strip() == "hpa 0x40001000"

    @pytest.mark.parametrize("field,value", [
        ("n", 2.0), ("n", True), ("gb", [4096.5]), ("gb", 4096),
        ("hb", [8192.9, 65536]), ("limit", 69632.7), ("limit", "69632"),
    ])
    def test_non_integer_register_is_a_usage_error(self, tmp_path, capsys, field, value):
        regs = {"n": 2, "gb": [4096], "hb": [8192, 65536], "limit": 69632}
        path = tmp_path / "regs.json"
        path.write_text(json.dumps(regs))
        assert main(["translate", "--registers", str(path), "--gpa", "0x10"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "hpa 0x2010"
        path.write_text(json.dumps({**regs, field: value}))
        code = main(["translate", "--registers", str(path), "--gpa", "0x10"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "bad register file" in captured.err and captured.out == ""


class TestCostModel:
    @pytest.fixture
    def counters_file(self, tmp_path):
        path = tmp_path / "counters.txt"
        path.write_text(
            "# per-walk cycles\n"
            "c_1d = 100\n"
            "c_2d = 600\n"
            "n_tlb = 1000000\n"
            "n_exit = 1000\n"
            "c_exit = 2000\n"
            "c_handler = 500\n"
        )
        return path

    def test_register_mode_breakdown(self, counters_file, capsys):
        code = main(["costmodel", "--counters", str(counters_file), "--mode", "dsn"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_cycles"] == 1e8
        assert payload["exit_cycles"] == 0

    def test_shadow_includes_exit_term(self, counters_file, capsys):
        main(["costmodel", "--counters", str(counters_file), "--mode", "shadow"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["walk_cycles"] == 1e8
        assert payload["exit_cycles"] == 1000 * 2500

    def test_nested_mode(self, counters_file, capsys):
        main(["costmodel", "--counters", str(counters_file), "--mode", "ept"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_cycles"] == 6e8

    def test_bad_counter_file(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("nonsense = 4\n")
        code = main(["costmodel", "--counters", str(path), "--mode", "dsn"])
        assert code == EXIT_PARSE

    def test_non_finite_counter_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("n_tlb = 10\nc_1d = nan\n")
        code = main(["costmodel", "--counters", str(path), "--mode", "native1d"])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE and captured.out == ""
        assert "line 2: counter c_1d must be finite" in captured.err


class TestUsage:
    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["replay", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--trace", "--fleet", "--variant", "--n", "--seed",
                     "--period-hours", "--out", "--format"):
            assert flag in out


# Per command: its required flags only, every flag (one as --flag=value), and
# abbreviated long options.
PARSE_TABLE = {
    "replay": [
        ["--trace", "t.csv", "--fleet", "f.json"],
        ["--trace", "t.csv", "--fleet", "f.json", "--variant", "opt2", "--n", "5",
         "--seed", "7", "--period-hours", "6.5", "--out", "o", "--format=csv",
         "--max-anomalies", "3"],
        ["--tr", "t.csv", "--fl", "f.json", "--var", "opt1", "--se", "2", "--p", "1",
         "--o", "o", "--fo", "plotdata", "--max", "1"],
    ],
    "bootstorm": [
        ["--snapshot", "s.csv", "--fleet", "f.json"],
        ["--snapshot", "s.csv", "--horizon-hours", "2", "--fleet", "f.json",
         "--variant", "baseline", "--n", "2", "--seed", "3", "--period-hours", "24",
         "--out=o", "--format", "json", "--max-anomalies", "0"],
        ["--sn", "s.csv", "--hor", "3", "--fl", "f.json", "--var", "dynamic", "--ma", "2"],
    ],
    "gen-trace": [
        ["--vms", "10", "--out", "t.csv"],
        ["--vms", "10", "--flavors", "fl.json", "--arrival", "fixed:5",
         "--lifetime=none", "--seed", "4", "--out", "t.csv"],
        ["--vm", "10", "--fla", "fl.json", "--arr", "exp:3", "--life", "exp:9",
         "--se", "1", "--ou", "t.csv"],
    ],
    "translate": [
        ["--registers", "r.json", "--gpa", "0x10"],
        ["--registers=r.json", "--gpa", "16"],
        ["--reg", "r.json", "--gp", "0x20"],
    ],
    "costmodel": [
        ["--counters", "c.txt", "--mode", "dsn"],
        ["--counters", "c.txt", "--mode=shadow"],
        ["--count", "c.txt", "--mo", "ept"],
    ],
}


class _Parsed(Exception):
    """Raised by the spy in place of running the parsed command."""


def parsed_by_main(monkeypatch, argv):
    """The Namespace that ``main(argv)`` parses, and the command it built its
    parser for, without running the command."""
    seen = {}
    real = cli.build_parser

    def spy(command=None):
        parser = real(command)
        parse = parser.parse_args

        def parse_and_stop(args):
            seen["args"] = parse(args)
            raise _Parsed

        parser.parse_args = parse_and_stop
        seen["command"] = command
        return parser

    monkeypatch.setattr(cli, "build_parser", spy)
    with pytest.raises(_Parsed):
        main(argv)
    return seen["args"], seen["command"]


def printed(capsys, parse, argv):
    """What a parse of ``argv`` prints and the code it exits with."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return out.out, out.err, exc.value.code


class TestParserForTheInvokedCommand:
    """``main`` builds only the parser of the command it is given; it parses
    and prints exactly what the parser of every command does."""

    def test_table_covers_every_command(self):
        assert set(PARSE_TABLE) == set(COMMANDS)

    @pytest.mark.parametrize("command,flags", [
        (command, flags) for command, rows in PARSE_TABLE.items() for flags in rows
    ])
    def test_namespace_equals_the_full_parsers(self, monkeypatch, command, flags):
        argv = [command, *flags]
        expected = build_parser().parse_args(argv)
        got, built_for = parsed_by_main(monkeypatch, argv)
        assert built_for == command
        assert got == expected

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_help_is_byte_identical(self, capsys, command):
        full = printed(capsys, build_parser().parse_args, [command, "--help"])
        assert full[2] == 0 and full[0]
        assert printed(capsys, main, [command, "--help"]) == full

    @pytest.mark.parametrize("argv,code", [
        (["--help"], 0),
        ([], EXIT_USAGE),
        (["bogus"], EXIT_USAGE),
        (["-h", "replay"], 0),
        (["replay"], EXIT_USAGE),
        (["replay", "--trace", "t.csv", "--fleet", "f.json", "--bogus"], EXIT_USAGE),
        (["replay", "--trace", "t.csv", "--fleet", "f.json", "--variant", "opt9"], EXIT_USAGE),
        (["replay", "--f", "x"], EXIT_USAGE),
        (["costmodel", "--counters", "c.txt", "--mode", "paging"], EXIT_USAGE),
    ])
    def test_usage_and_errors_are_unchanged(self, capsys, argv, code):
        full = printed(capsys, build_parser().parse_args, argv)
        assert full[2] == code
        assert printed(capsys, main, argv) == full
