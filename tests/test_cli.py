"""Command-line interface: subcommands, formats, exit codes, and overrides."""

import json
import math
from pathlib import Path

import pytest

from ftqc_estimator import cli, jobs
from ftqc_estimator.errors import EstimationStageError
from ftqc_estimator.layout import layout_qubits

GOLDEN = Path(__file__).parent / "golden"


def write_job(tmp_path, name="job.json", **fields):
    data = {
        "input": {"logicalCounts": {"numQubits": 4, "tCount": 1000, "measurementCount": 10}},
        "qubitParams": "qubit_gate_ns_e4",
        "errorBudget": 1e-3,
    }
    data.update(fields)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimateCommand:
    def test_profile_values_echo_into_report(self, tmp_path, capsys):
        job = write_job(
            tmp_path,
            input={"postLayout": {"logicalQubitsPostLayout": 100, "algorithmicDepth": 1000}},
            qubitParams="qubit_maj_ns_e4",
            errorBudget=1e-4,
        )
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert code == 0, err
        report = json.loads(out)
        params = report["physicalQubitParameters"]
        assert params["tGateTime"] == 100.0
        assert params["oneQubitMeasurementTime"] == 100.0
        assert params["twoQubitMeasurementTime"] == 100.0
        assert params["cliffordErrorRate"] == 1e-4
        assert params["tGateErrorRate"] == 0.05
        assert params["instructionSet"] == "majorana"

    def test_two_input_variants_rejected(self, tmp_path, capsys):
        job = write_job(
            tmp_path,
            input={
                "tracePath": "trace.jsonl",
                "logicalCounts": {"numQubits": 1},
            },
        )
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert code == 2
        payload = json.loads(err)
        assert payload["error"]["type"] == "ConfigError"

    def test_minimal_measurement_job(self, tmp_path, capsys):
        job = write_job(
            tmp_path,
            input={"logicalCounts": {"numQubits": 1, "measurementCount": 1}},
            qubitParams="qubit_maj_ns_e4",
            errorBudget=0.01,
        )
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert code == 0, err
        report = json.loads(out)
        breakdown = report["resourceEstimatesBreakdown"]
        assert breakdown["numTFactoryCopies"] == 0
        footprint = report["logicalQubitParameters"]["physicalQubitsPerLogicalQubit"]
        expected = layout_qubits(1) * footprint
        assert report["physicalResourceEstimates"]["physicalQubits"] == expected

    def test_trace_input(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            '{"op":"alloc","q":[0,1,2]}\n'
            '{"op":"ccz","q":[0,1,2]}\n'
            '{"op":"measure","q":[0]}\n'
        )
        job = write_job(tmp_path, input={"tracePath": "trace.jsonl"})
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert code == 0, err
        report = json.loads(out)
        assert report["preLayoutLogicalResources"]["cczCount"] == 1
        assert report["resourceEstimatesBreakdown"]["numTStates"] == 4

    def test_out_file_and_table_format(self, tmp_path, capsys):
        job = write_job(tmp_path)
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "estimate", "--job", str(job), "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["assumptions"]
        code, out, _ = run(capsys, "estimate", "--job", str(job), "--format", "table")
        assert code == 0
        assert "physicalResourceEstimates.physicalQubits" in out

    def test_infeasible_job_exits_3(self, tmp_path, capsys):
        job = write_job(
            tmp_path,
            qubitParams={
                "instructionSet": "gateBased",
                "oneQubitGateTime": 50.0,
                "twoQubitGateTime": 50.0,
                "oneQubitMeasurementTime": 100.0,
                "tGateTime": 50.0,
                "cliffordErrorRate": 0.5,
                "readoutErrorRate": 0.5,
                "tGateErrorRate": 0.5,
            },
            qecScheme="surface_code",
        )
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert code == 3
        payload = json.loads(err)
        assert payload["error"]["type"] == "AboveThresholdError"
        assert payload["error"]["stage"] == "code-distance"

    def test_missing_job_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "estimate", "--job", str(tmp_path / "absent.json"))
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ConfigError"

    def test_inline_params_require_scheme(self, tmp_path, capsys):
        job = write_job(
            tmp_path,
            qubitParams=MAJORANA_PARAMS,
        )
        code, _, err = run(capsys, "estimate", "--job", str(job))
        assert code == 2
        assert "qecScheme" in json.loads(err)["error"]["message"]


MAJORANA_PARAMS = {
    "instructionSet": "majorana",
    "oneQubitMeasurementTime": 100.0,
    "twoQubitMeasurementTime": 100.0,
    "tGateTime": 100.0,
    "cliffordErrorRate": 1e-4,
    "readoutErrorRate": 1e-4,
    "tGateErrorRate": 0.01,
}

UNIT_15_TO_1 = {
    "name": "15-to-1",
    "numInputTs": 15,
    "numOutputTs": 1,
    "failureProbabilityFormula": "15 * inputErrorRate",
    "outputErrorRateFormula": "35 * inputErrorRate ^ 3",
    "physicalQubitsFormula": "31 * physicalQubitsPerLogicalQubit",
    "durationFormula": "11 * logicalCycleTime",
}


SURFACE_SCHEME = {
    "name": "surface_code",
    "crossingPrefactor": 0.03,
    "errorCorrectionThreshold": 0.01,
    "logicalCycleTime": "(4 * twoQubitGateTime + 2 * oneQubitMeasurementTime) * codeDistance",
    "physicalQubitsPerLogicalQubit": "2 * codeDistance ^ 2",
    "maxCodeDistance": 25,
}

POST_LAYOUT = {"logicalQubitsPostLayout": 100, "algorithmicDepth": 2000, "totalTStates": 50000}


def assert_config_error(code, out, err, fragment):
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError"
    assert fragment in error["message"]


class TestNumericValidation:
    @pytest.mark.parametrize(
        "key, literal",
        [
            ("tGateTime", "NaN"),
            ("tGateTime", "1e999"),
            ("oneQubitMeasurementTime", "NaN"),
        ],
    )
    def test_non_finite_time_exits_2(self, tmp_path, capsys, key, literal):
        # json.dumps cannot write 1e999, so the literal is spliced into the text
        job = write_job(
            tmp_path,
            qubitParams=dict(MAJORANA_PARAMS, **{key: "@"}),
            qecScheme="floquet_code",
        )
        job.write_text(job.read_text().replace('"@"', literal))
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert_config_error(code, out, err, key)

    def test_integer_literal_beyond_float_range_exits_2(self, tmp_path, capsys):
        job = write_job(tmp_path, input={"postLayout": dict(POST_LAYOUT, totalTStates="@")})
        job.write_text(job.read_text().replace('"@"', "9" * 400))
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert_config_error(code, out, err, "totalTStates")

    def test_integer_literal_beyond_int_string_limit_exits_2(self, tmp_path, capsys):
        job = write_job(tmp_path, input={"postLayout": dict(POST_LAYOUT, totalTStates="@")})
        job.write_text(job.read_text().replace('"@"', "9" * 5000))
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert_config_error(code, out, err, "4300 digits")

    def test_trace_id_beyond_int_string_limit_exits_2(self, tmp_path, capsys):
        (tmp_path / "trace.jsonl").write_text('{"op": "alloc", "q": [0]}\n{"op": "t", "q": [%s]}\n' % ("9" * 5000))
        job = write_job(tmp_path, input={"tracePath": "trace.jsonl"})
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "TraceFormatError"
        assert error["message"].startswith(f"bad JSON at {tmp_path / 'trace.jsonl'}:2: ")
        assert "4300 digits" in error["message"]

    @pytest.mark.parametrize("key", ["numInputTs", "numOutputTs"])
    def test_fractional_unit_count_exits_2(self, tmp_path, capsys, key):
        unit = dict(UNIT_15_TO_1, **{key: UNIT_15_TO_1[key] + 0.9})
        job = write_job(tmp_path, distillationUnits=[unit])
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert_config_error(code, out, err, key)

    def test_fractional_copy_limit_exits_2(self, tmp_path, capsys):
        job = write_job(tmp_path, tFactoryConstraints={"maxTFactoryCopies": 2.7})
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert_config_error(code, out, err, "maxTFactoryCopies")

    def test_integral_floats_equal_integers(self, tmp_path, capsys):
        as_int = write_job(
            tmp_path,
            "int.json",
            distillationUnits=[UNIT_15_TO_1],
            tFactoryConstraints={"maxTFactoryCopies": 100},
        )
        as_float = write_job(
            tmp_path,
            "float.json",
            distillationUnits=[dict(UNIT_15_TO_1, numInputTs=15.0, numOutputTs=1.0)],
            tFactoryConstraints={"maxTFactoryCopies": 100.0},
        )
        code, expected, err = run(capsys, "estimate", "--job", str(as_int))
        assert code == 0, err
        assert run(capsys, "estimate", "--job", str(as_float)) == (0, expected, "")

    def test_nan_slowdown_cap_exits_2(self, tmp_path, capsys):
        # NaN compares false with every slowdown, so it would switch the cap off
        job = write_job(
            tmp_path,
            tFactoryConstraints={"maxTFactoryCopies": 1, "maxLogicalCycleSlowdown": math.nan},
        )
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert_config_error(code, out, err, "maxLogicalCycleSlowdown")

    @pytest.mark.parametrize("key", sorted(POST_LAYOUT))
    def test_fractional_post_layout_count_exits_2(self, tmp_path, capsys, key):
        post_layout = dict(POST_LAYOUT, **{key: POST_LAYOUT[key] + 0.5})
        job = write_job(tmp_path, input={"postLayout": post_layout})
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert_config_error(code, out, err, key)

    def test_integral_post_layout_floats_equal_integers(self, tmp_path, capsys):
        as_int = write_job(tmp_path, "int.json", input={"postLayout": POST_LAYOUT})
        as_float = write_job(
            tmp_path,
            "float.json",
            input={"postLayout": {key: float(value) for key, value in POST_LAYOUT.items()}},
        )
        code, expected, err = run(capsys, "estimate", "--job", str(as_int))
        assert code == 0, err
        assert run(capsys, "estimate", "--job", str(as_float)) == (0, expected, "")

    def test_fractional_max_code_distance_exits_2(self, tmp_path, capsys):
        job = write_job(tmp_path, qecScheme=dict(SURFACE_SCHEME, maxCodeDistance=25.5))
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert_config_error(code, out, err, "maxCodeDistance")

    def test_nan_crossing_prefactor_exits_2(self, tmp_path, capsys):
        job = write_job(tmp_path, qecScheme=dict(SURFACE_SCHEME, crossingPrefactor=math.nan))
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert_config_error(code, out, err, "crossingPrefactor")

    @pytest.mark.parametrize(
        "formula", ["ceil(1e300 * 1e300)", "floor(1e300 * 1e300 - 1e300 * 1e300)"]
    )
    def test_non_finite_rounding_in_unit_formula_exits_2(self, tmp_path, capsys, formula):
        unit = dict(UNIT_15_TO_1, durationFormula=formula)
        job = write_job(tmp_path, distillationUnits=[unit])
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "FormulaDomainError"

    def test_overlong_unit_formula_exits_2(self, tmp_path, capsys):
        formula = "(" * 400 + "11 * logicalCycleTime" + ")" * 400
        job = write_job(tmp_path, distillationUnits=[dict(UNIT_15_TO_1, durationFormula=formula)])
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "FormulaSyntaxError"
        assert "256 tokens" in error["message"]

    @pytest.mark.parametrize("value", [True, "100"])
    def test_time_must_be_a_json_number(self, tmp_path, capsys, value):
        job = write_job(
            tmp_path,
            qubitParams=dict(MAJORANA_PARAMS, tGateTime=value),
            qecScheme="floquet_code",
        )
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert_config_error(code, out, err, "tGateTime")


class TestBudgetShares:
    @pytest.mark.parametrize(
        "parts, stage",
        [
            ({"logical": 0, "tStates": 5e-4, "rotations": 5e-4}, "logical-error-target"),
            ({"logical": 5e-4, "tStates": 0, "rotations": 5e-4}, "t-state-target"),
        ],
    )
    def test_zero_share_in_use_exits_2(self, tmp_path, capsys, parts, stage):
        job = write_job(tmp_path, errorBudget={"total": 1e-3, **parts})
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InvalidPartitionError"
        assert error["stage"] == stage

    def test_zero_share_of_unused_feature_is_fine(self, tmp_path, capsys):
        job = write_job(
            tmp_path,
            input={"postLayout": dict(POST_LAYOUT, totalTStates=0)},
            errorBudget={"total": 1e-3, "logical": 5e-4, "tStates": 0, "rotations": 5e-4},
        )
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert code == 0, err
        report = json.loads(out)
        assert report["assumedErrorBudget"]["tStates"] == 0
        assert report["resourceEstimatesBreakdown"]["requiredTStateError"] is None


class TestUnreadableFiles:
    NOT_UTF8 = b'{"name": "\xff"}\n'

    def test_missing_trace_file_exits_2(self, tmp_path, capsys):
        job = write_job(tmp_path, input={"tracePath": "absent.jsonl"})
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert_config_error(code, out, err, "absent.jsonl")

    def test_non_utf8_job_file_exits_2(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_bytes(self.NOT_UTF8)
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert_config_error(code, out, err, "job.json")

    def test_non_utf8_trace_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "trace.jsonl").write_bytes(b'{"op": "alloc", "q": [0]}\n\xff\n')
        job = write_job(tmp_path, input={"tracePath": "trace.jsonl"})
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert_config_error(code, out, err, "trace.jsonl")

    def test_non_utf8_override_profile_exits_2(self, tmp_path, capsys, monkeypatch):
        profile_dir = tmp_path / "profiles"
        profile_dir.mkdir()
        (profile_dir / "bespoke.json").write_bytes(self.NOT_UTF8)
        monkeypatch.setenv("FTQC_PROFILE_DIR", str(profile_dir))
        job = write_job(tmp_path, qubitParams="bespoke")
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert_config_error(code, out, err, "bespoke.json")


class TestMalformedRecords:
    DEEP = "[" * 100_000 + "]" * 100_000

    def trace_error(self, tmp_path, capsys, line):
        (tmp_path / "trace.jsonl").write_text('{"op": "alloc", "q": [0]}\n' + line + "\n")
        job = write_job(tmp_path, input={"tracePath": "trace.jsonl"})
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "TraceFormatError"
        return error["message"]

    @pytest.mark.parametrize("op", [["t"], {"t": 0}])
    def test_non_string_trace_op_exits_2(self, tmp_path, capsys, op):
        message = self.trace_error(tmp_path, capsys, json.dumps({"op": op, "q": [0]}))
        assert message.endswith(f"({tmp_path / 'trace.jsonl'}:2)")

    def test_deeply_nested_trace_line_exits_2(self, tmp_path, capsys):
        message = self.trace_error(tmp_path, capsys, '{"op": "t", "q": %s}' % self.DEEP)
        assert message.startswith(f"bad JSON at {tmp_path / 'trace.jsonl'}:2: ")

    def test_deeply_nested_job_file_exits_2(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text('{"input": %s}' % self.DEEP)
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert_config_error(code, out, err, "job.json is not valid JSON")


class TestSweepCommand:
    def test_distance_grows_as_budget_shrinks(self, tmp_path, capsys):
        job = write_job(tmp_path, errorBudget={"total": 1e-2})
        out_csv = tmp_path / "sweep.csv"
        code, _, err = run(
            capsys,
            "sweep",
            "--job",
            str(job),
            "--param",
            "errorBudget.total",
            "--values",
            "1e-2,1e-4,1e-6",
            "--out",
            str(out_csv),
        )
        assert code == 0, err
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "value,physicalQubits,runtime_ns,codeDistance,rqops,numTFactoryCopies,error"
        distances = [int(line.split(",")[3]) for line in lines[1:]]
        assert len(distances) == 3
        assert distances == sorted(distances)

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        job = write_job(tmp_path, errorBudget={"total": 1e-2})
        args = (
            "sweep",
            "--job",
            str(job),
            "--param",
            "errorBudget.total",
            "--values",
            "1e-2,1e-3",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_failed_values_become_error_rows(self, tmp_path, capsys):
        job = write_job(tmp_path, errorBudget={"total": 1e-3})
        code, out, _ = run(
            capsys,
            "sweep",
            "--job",
            str(job),
            "--param",
            "errorBudget.total",
            "--values",
            "1e-3,0.0",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows[0].endswith(",")  # success row, empty error column
        assert "ConfigError" in rows[1]

    def test_deeply_nested_template_gives_error_rows(self, tmp_path, capsys):
        # each row copies the template by a JSON round trip, which handles
        # nesting well beyond what copy.deepcopy does within the recursion limit
        job = write_job(tmp_path, rotationSynthesis="@")
        job.write_text(job.read_text().replace('"@"', "[" * 900 + "]" * 900))
        code, out, err = run(
            capsys, "sweep", "--job", str(job), "--param", "errorBudget", "--values", "1e-3,1e-2"
        )
        assert (code, err) == (0, "")
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 2
        assert all("ConfigError: rotationSynthesis must be an object" in row for row in rows)

    def test_empty_values_rejected(self, tmp_path, capsys):
        job = write_job(tmp_path)
        code, _, err = run(
            capsys, "sweep", "--job", str(job), "--param", "errorBudget.total", "--values", ","
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ConfigError"

    def test_bad_path_rejected(self, tmp_path, capsys):
        job = write_job(tmp_path)
        code, _, err = run(
            capsys, "sweep", "--job", str(job), "--param", "no.such.field", "--values", "1"
        )
        assert code == 2

    def test_integer_field_sweep(self, tmp_path, capsys):
        job = write_job(tmp_path)
        code, out, err = run(
            capsys,
            "sweep",
            "--job",
            str(job),
            "--param",
            "input.logicalCounts.tCount",
            "--values",
            "1000,4000,16000",
        )
        assert code == 0, err
        rows = out.strip().splitlines()[1:]
        assert all(row.endswith(",") for row in rows)


class TestFrontierCommand:
    def test_structured_points(self, tmp_path, capsys):
        job = write_job(
            tmp_path,
            input={"logicalCounts": {"numQubits": 50, "tCount": 200000}},
        )
        code, out, err = run(
            capsys, "frontier", "--job", str(job), "--slowdown-grid", "1,2,4"
        )
        assert code == 0, err
        payload = json.loads(out)
        qubits = [p["physicalQubits"] for p in payload["points"]]
        assert qubits == sorted(qubits, reverse=True)
        assert payload["errors"] == []

    def test_table_format(self, tmp_path, capsys):
        job = write_job(tmp_path)
        code, out, _ = run(
            capsys, "frontier", "--job", str(job), "--slowdown-grid", "1", "--format", "table"
        )
        assert code == 0
        assert out.splitlines()[0] == "slowdown,physicalQubits,runtime_ns"

    def test_error_rows_describe_failures_as_estimate_does(self, capsys):
        job = str(GOLDEN / "no_feasible_pipeline.json")
        code, _, err = run(capsys, "estimate", "--job", job)
        assert code == 3
        failure = json.loads(err)["error"]
        code, out, err = run(capsys, "frontier", "--job", job, "--slowdown-grid", "1,2")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["points"] == []
        assert payload["errors"] == [{"slowdown": s, **failure} for s in (1.0, 2.0)]


    def test_non_finite_stretched_runtime_is_config_error(self, capsys):
        job = str(GOLDEN / "copy_limit_slowdown.json")
        code, out, err = run(capsys, "frontier", "--job", job, "--slowdown-grid", "1,1e308")
        assert code == 0, err
        payload = json.loads(out)
        assert [p["slowdown"] for p in payload["points"]] == [1.0]
        [row] = payload["errors"]
        assert (row["slowdown"], row["type"], row["stage"]) == (1e308, "ConfigError", "t-factory-sizing")
        assert "finite" in row["message"]
        with pytest.raises(EstimationStageError) as excinfo:
            jobs.run_job(jobs.load_job(job), slowdown=1e308)
        assert cli._failure(excinfo.value) == (cli.EXIT_CONFIG, {k: row[k] for k in ("type", "message", "stage")})


class TestProfilesCommand:
    def test_lists_six_builtins(self, capsys):
        code, out, _ = run(capsys, "profiles")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7  # header + six profiles
        names = [line.split()[0] for line in lines[1:]]
        assert names == [
            "qubit_gate_ns_e3",
            "qubit_gate_ns_e4",
            "qubit_gate_us_e3",
            "qubit_gate_us_e4",
            "qubit_maj_ns_e4",
            "qubit_maj_ns_e6",
        ]

    def test_structured_output_matches(self, capsys):
        code, out, _ = run(capsys, "profiles", "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        by_name = {p["name"]: p for p in payload}
        maj = by_name["qubit_maj_ns_e4"]
        assert maj["qubitParams"]["tGateTime"] == 100.0
        assert maj["qubitParams"]["cliffordErrorRate"] == 1e-4
        assert maj["qubitParams"]["tGateErrorRate"] == 0.05
        assert maj["defaultQecScheme"] == "floquet_code"

    def test_profile_dir_override(self, tmp_path, capsys, monkeypatch):
        custom = {
            "name": "bespoke",
            "description": "test-only",
            "qubitParams": {
                "instructionSet": "gateBased",
                "oneQubitGateTime": 10.0,
                "twoQubitGateTime": 10.0,
                "oneQubitMeasurementTime": 20.0,
                "tGateTime": 10.0,
                "cliffordErrorRate": 1e-3,
                "readoutErrorRate": 1e-3,
                "tGateErrorRate": 1e-3,
            },
            "defaultQecScheme": "surface_code",
        }
        (tmp_path / "bespoke.json").write_text(json.dumps(custom))
        monkeypatch.setenv("FTQC_PROFILE_DIR", str(tmp_path))
        code, out, _ = run(capsys, "profiles", "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert [p["name"] for p in payload] == ["bespoke"]

    def test_profile_dir_override_for_jobs(self, tmp_path, capsys, monkeypatch):
        base, _, _ = run(capsys, "profiles", "--format", "structured")
        monkeypatch.setenv("FTQC_PROFILE_DIR", str(tmp_path / "empty"))
        (tmp_path / "empty").mkdir()
        job = write_job(tmp_path, qubitParams="qubit_gate_ns_e4")
        code, _, err = run(capsys, "estimate", "--job", str(job))
        assert code == 2
        assert "qubit_gate_ns_e4" in json.loads(err)["error"]["message"]


class TestUsage:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["simulate"])
        assert excinfo.value.code != 0

    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code != 0

    @pytest.mark.parametrize("grid", ["nan", "1,inf"])
    def test_non_finite_numeric_list(self, tmp_path, capsys, grid):
        job = write_job(tmp_path)
        code, out, err = run(capsys, "frontier", "--job", str(job), "--slowdown-grid", grid)
        assert_config_error(code, out, err, "finite")

    def test_bad_numeric_list(self, tmp_path, capsys):
        job = write_job(tmp_path)
        code, _, err = run(
            capsys, "frontier", "--job", str(job), "--slowdown-grid", "fast"
        )
        assert code == 2
