"""Command-line interface: subcommands, formats, exit codes, and overrides."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ftqc_estimator import cli, jobs
from ftqc_estimator.counts import TraceEvent, count_trace
from ftqc_estimator.errors import EstimationStageError, TraceFormatError
from ftqc_estimator.layout import layout_qubits
from test_bad_inputs import reject_constant, replaced

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

    def test_internal_error_exits_1_with_its_type_and_message(
        self, tmp_path, capsys, monkeypatch
    ):
        def boom(job):
            raise RuntimeError("boom")

        monkeypatch.setattr(jobs, "run_job", boom)
        code, out, err = run(capsys, "estimate", "--job", str(write_job(tmp_path)))
        assert code == 1
        assert out == ""
        assert err == '{"error": {"type": "RuntimeError", "message": "boom"}}\n'


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

    @pytest.mark.parametrize(
        "fields, trace, kind, fragment",
        [
            ({"errorBudget": "x" * 10**6}, None, "ConfigError", "errorBudget must be a finite number"),
            ({"qubitParams": "x" * 10**6}, None, "ConfigError", "unknown hardware profile"),
            ({"qecScheme": "x" * 10**6}, None, "ConfigError", "unknown QEC scheme"),
            ({"input": {"tracePath": "x" * 10**6}}, None, "ConfigError", "cannot read trace file"),
            (
                {"input": {"logicalCounts": {"numQubits": 4, "tCount": "x" * 10**6}}},
                None,
                "InvalidCountsError",
                "'tCount': must be an integer",
            ),
            (
                {"input": {"logicalCounts": {"numQubits": 4, "x" * 10**6: 1}}},
                None,
                "InvalidCountsError",
                "unknown counts field",
            ),
            (
                {"input": {"tracePath": "trace.jsonl"}},
                json.dumps({"op": "x" * 10**6, "q": [0]}),
                "TraceFormatError",
                "unknown trace op",
            ),
            (
                {"distillationUnits": [dict(UNIT_15_TO_1, durationFormula="x" * 10**6 + "(1)")]},
                None,
                "UnknownFunctionError",
                "unknown function",
            ),
            (
                {"distillationUnits": [dict(UNIT_15_TO_1, durationFormula="x" * 10**6)]},
                None,
                "UnboundVariableError",
                "is not bound",
            ),
            (
                {"distillationUnits": [dict(UNIT_15_TO_1, name="x" * 10**6, numOutputTs=15)]},
                None,
                "ConfigError",
                "must concentrate fidelity",
            ),
            (
                {"qecScheme": dict(SURFACE_SCHEME, name="x" * 10**6, logicalCycleTime="0")},
                None,
                "ConfigError",
                "formulas must be positive",
            ),
        ],
        ids=[
            "errorBudget",
            "qubitParams",
            "qecScheme",
            "tracePath",
            "tCount",
            "countsKey",
            "traceOp",
            "unknownFunction",
            "unboundVariable",
            "unitName",
            "schemeName",
        ],
    )
    def test_huge_value_is_echoed_short(self, tmp_path, capsys, fields, trace, kind, fragment):
        if trace is not None:
            (tmp_path / "trace.jsonl").write_text(trace + "\n")
        job = write_job(tmp_path, **fields)
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == kind
        assert fragment in error["message"]
        assert len(err) < 1000

    def test_huge_op_reaching_the_counter_is_echoed_short(self):
        # parsed traces hold known ops only, so this takes a built event
        with pytest.raises(TraceFormatError, match="unknown trace op") as caught:
            count_trace([TraceEvent("x" * 10**6, (0,))])
        assert len(str(caught.value)) < 1000

    def test_huge_profile_name_in_profile_dir_is_echoed_short(
        self, tmp_path, capsys, monkeypatch
    ):
        # the profile file name is too long to open; the error repeats it
        # in the path and in the OS error's text
        monkeypatch.setenv("FTQC_PROFILE_DIR", str(tmp_path))
        job = write_job(tmp_path, qubitParams="x" * 10**6)
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert (code, out) == (2, "")
        error = strict_json(err)["error"]
        assert error["type"] == "ConfigError"
        assert error["message"].startswith("cannot read profile ")
        assert len(err) < 1000

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

    def test_max_code_distance_above_the_cap_exits_2(self, tmp_path, capsys):
        job = write_job(tmp_path, qecScheme=dict(SURFACE_SCHEME, maxCodeDistance=103))
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert_config_error(code, out, err, "maxCodeDistance must be at most 101")

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


def strict_json(text):
    return json.loads(text, parse_constant=reject_constant)


# Job fields that put an input outside the crossing model's domain (a zero
# physical rate, or an error target that underflows to 0), the stage that
# rejects them, and a sweep over the field at fault: one bad, one good value.
OUTSIDE_MODEL = {
    "zero_physical_rate": (
        {
            "qubitParams": dict(MAJORANA_PARAMS, cliffordErrorRate=0.0, readoutErrorRate=0.0),
            "qecScheme": "floquet_code",
        },
        "code-distance",
        ("qubitParams.readoutErrorRate", "0,1e-4"),
    ),
    "logical_target_underflow": (
        {"errorBudget": 5e-324},
        "code-distance",
        ("errorBudget", "5e-324,1e-3"),
    ),
    "t_state_target_underflow": (
        {"errorBudget": {"total": 1e-3, "logical": 1e-3, "tStates": 5e-324, "rotations": 0}},
        "t-factory-pipeline",
        ("errorBudget.tStates", "5e-324,1e-13"),
    ),
}


@pytest.mark.parametrize("case", sorted(OUTSIDE_MODEL))
class TestOutsideModelDomain:
    def test_estimate_exits_2(self, tmp_path, capsys, case):
        fields, stage, _ = OUTSIDE_MODEL[case]
        code, out, err = run(capsys, "estimate", "--job", str(write_job(tmp_path, **fields)))
        assert (code, out) == (2, "")
        error = strict_json(err)["error"]
        assert (error["type"], error["stage"]) == ("ConfigError", stage)

    def test_frontier_lists_the_failure_at_every_factor(self, tmp_path, capsys, case):
        job = str(write_job(tmp_path, **OUTSIDE_MODEL[case][0]))
        _, _, err = run(capsys, "estimate", "--job", job)
        failure = strict_json(err)["error"]
        code, out, err = run(capsys, "frontier", "--job", job, "--slowdown-grid", "1,2,4")
        assert (code, err) == (0, "")
        payload = strict_json(out)
        assert payload["points"] == []
        assert payload["errors"] == [{"slowdown": s, **failure} for s in (1.0, 2.0, 4.0)]

    def test_sweep_gives_one_error_row(self, tmp_path, capsys, case):
        fields, _, (param, values) = OUTSIDE_MODEL[case]
        job = str(write_job(tmp_path, **fields))
        code, out, err = run(capsys, "sweep", "--job", job, "--param", param, "--values", values)
        assert (code, err) == (0, "")
        bad, good = out.strip().splitlines()[1:]
        assert "ConfigError: " in bad
        assert good.endswith(",")


def t_free_job(cycle_time):
    """Fields of a T-free post-layout job whose scheme has this cycle time."""
    return {
        "input": {"postLayout": {"logicalQubitsPostLayout": 100, "algorithmicDepth": 2000}},
        "qecScheme": dict(SURFACE_SCHEME, logicalCycleTime=cycle_time),
    }


# Jobs in which a value the estimate derives leaves float range at every
# slowdown, and the stage that rejects it: the factory runs that fit in the
# runtime, the runtime of a T-free job, the logical clock speed and rQOPS.
BEYOND_FLOAT_RANGE = {
    "factory_runs": (
        {"distillationUnits": [dict(UNIT_15_TO_1, durationFormula="1e-305")]},
        "t-factory-sizing",
    ),
    "t_free_runtime": (t_free_job("1e306 * codeDistance"), "t-factory-sizing"),
    "clock_speed": (t_free_job("1e-310 * codeDistance"), "logical-qubit-profile"),
    "rqops": (t_free_job("1e-299 * codeDistance"), "logical-qubit-profile"),
}


@pytest.mark.parametrize("case", sorted(BEYOND_FLOAT_RANGE))
class TestBeyondFloatRange:
    def test_estimate_exits_2(self, tmp_path, capsys, case):
        fields, stage = BEYOND_FLOAT_RANGE[case]
        code, out, err = run(capsys, "estimate", "--job", str(write_job(tmp_path, **fields)))
        assert (code, out) == (2, "")
        error = strict_json(err)["error"]
        assert (error["type"], error["stage"]) == ("ConfigError", stage)

    def test_frontier_lists_the_failure_at_every_factor(self, tmp_path, capsys, case):
        fields, stage = BEYOND_FLOAT_RANGE[case]
        job = str(write_job(tmp_path, **fields))
        code, out, err = run(capsys, "frontier", "--job", job, "--slowdown-grid", "1,2")
        assert (code, err) == (0, "")
        payload = strict_json(out)
        assert payload["points"] == []
        assert [(row["slowdown"], row["type"], row["stage"]) for row in payload["errors"]] == [
            (s, "ConfigError", stage) for s in (1.0, 2.0)
        ]


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

    def test_truncated_job_file_exits_2(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text('{"input": ')
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert_config_error(code, out, err, "is not valid JSON: Expecting")

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


class TestUnwritableOut:
    COMMANDS = {
        "estimate": [],
        "sweep": ["--param", "errorBudget", "--values", "1e-3"],
        "frontier": ["--slowdown-grid", "1,2"],
        "profiles": None,
    }
    TARGETS = {
        "missing-dir": lambda tmp_path: tmp_path / "absent" / "out.json",
        "directory": lambda tmp_path: tmp_path,
        "long-name": lambda tmp_path: tmp_path / ("x" * 100_000),
    }

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_exits_2_with_a_short_echo(self, tmp_path, capsys, command, target):
        extra = self.COMMANDS[command]
        argv = [command] if extra is None else [command, "--job", str(write_job(tmp_path)), *extra]
        out_path = str(self.TARGETS[target](tmp_path))
        code, out, err = run(capsys, *argv, "--out", out_path)
        assert_config_error(code, out, err, "cannot write output file")
        assert len(err.encode()) < 1000


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


def without(document, path):
    """A copy of ``document`` without the key at ``path``."""
    copy = replaced(document, path, None)
    node = copy
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return copy


def path_id(value):
    """A test id naming the key path, not the job fields."""
    return ".".join(map(str, value)) if isinstance(value, tuple) else "job"


ROTATION_COUNTS = {
    "logicalCounts": {"numQubits": 4, "tCount": 1000, "rotationCount": 30, "rotationDepth": 10}
}


class TestNullKeys:
    """``null`` on a key that may be absent means absent; on a required key
    it is a ConfigError naming the key."""

    @pytest.mark.parametrize(
        "fields, path",
        [
            ({"input": {"postLayout": POST_LAYOUT}}, ("input", "postLayout", "totalTStates")),
            ({"qecScheme": dict(SURFACE_SCHEME, maxCodeDistance=3)}, ("qecScheme", "maxCodeDistance")),
            (
                {"distillationUnits": [dict(UNIT_15_TO_1, applicability="logicalOnly")]},
                ("distillationUnits", 0, "applicability"),
            ),
            (
                {"input": ROTATION_COUNTS, "rotationSynthesis": {"a": 1.0, "b": 5.3}},
                ("rotationSynthesis", "a"),
            ),
            ({"tFactoryConstraints": {"maxTFactoryCopies": 1}}, ("tFactoryConstraints", "maxTFactoryCopies")),
            (
                {"qubitParams": dict(MAJORANA_PARAMS, readoutErrorRate=1e-3), "qecScheme": "floquet_code"},
                ("qubitParams", "readoutErrorRate"),
            ),
            # the job's own optional keys
            ({"qecScheme": "floquet_code"}, ("qecScheme",)),
            ({"tFactoryConstraints": {"maxTFactoryCopies": 1}}, ("tFactoryConstraints",)),
            (
                {"input": ROTATION_COUNTS, "rotationSynthesis": {"a": 1.0, "b": 5.3}},
                ("rotationSynthesis",),
            ),
            (
                {"distillationUnits": [dict(UNIT_15_TO_1, applicability="logicalOnly")]},
                ("distillationUnits",),
            ),
            # the input's keys: null on all but one of them leaves that one
            (
                {"input": {"postLayout": POST_LAYOUT, "tracePath": "small_trace.jsonl"}},
                ("input", "tracePath"),
            ),
        ],
        ids=path_id,
    )
    def test_null_on_an_optional_key_is_absent(self, tmp_path, capsys, fields, path):
        absent = write_job(tmp_path, "absent.json", **without(fields, path))
        null = write_job(tmp_path, "null.json", **replaced(fields, path, None))
        given = write_job(tmp_path, "given.json", **fields)
        code, expected, err = run(capsys, "estimate", "--job", str(absent))
        assert code == 0, err
        assert run(capsys, "estimate", "--job", str(null)) == (0, expected, "")
        # the given value changes the outcome, so the key is read at all
        assert run(capsys, "estimate", "--job", str(given))[:2] != (0, expected)

    @pytest.mark.parametrize(
        "fields, path",
        [
            ({"input": {"postLayout": POST_LAYOUT}}, ("input", "postLayout", "algorithmicDepth")),
            ({"qecScheme": SURFACE_SCHEME}, ("qecScheme", "crossingPrefactor")),
            ({"qecScheme": SURFACE_SCHEME}, ("qecScheme", "logicalCycleTime")),
            ({"distillationUnits": [UNIT_15_TO_1]}, ("distillationUnits", 0, "numInputTs")),
            ({"qubitParams": MAJORANA_PARAMS, "qecScheme": "floquet_code"}, ("qubitParams", "instructionSet")),
            ({"errorBudget": {"total": 1e-3}}, ("errorBudget", "total")),
        ],
        ids=path_id,
    )
    def test_null_on_a_required_key_exits_2(self, tmp_path, capsys, fields, path):
        job = write_job(tmp_path, **replaced(fields, path, None))
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert_config_error(code, out, err, path[-1])


class TestJobDocument:
    """The job is read as a record, so a read job writes a job document."""

    def test_a_read_job_reads_back_from_its_own_mapping(self, tmp_path):
        path = write_job(
            tmp_path,
            distillationUnits=[UNIT_15_TO_1],
            tFactoryConstraints={"maxTFactoryCopies": 4},
            rotationSynthesis={"a": 1.0, "b": 5.3},
        )
        job = jobs.job_from_mapping(json.loads(path.read_text()))
        assert jobs.job_from_mapping(json.loads(json.dumps(job.as_mapping()))) == job

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"qubitParams": 5}, "qubitParams must be a string, got 5"),
            ({"qecScheme": [], "qubitParams": MAJORANA_PARAMS}, "qecScheme must be a string, got []"),
            ({"errorBudget": "x"}, "errorBudget must be a finite number, got 'x'"),
            ({"distillationUnits": []}, "distillationUnits must be a non-empty list"),
            (
                {"distillationUnits": [UNIT_15_TO_1, dict(UNIT_15_TO_1, numInputTs="x")]},
                "distillationUnits[1] numInputTs must be a finite number, got 'x'",
            ),
            (
                {"input": {}},
                "job input must carry exactly one of tracePath, logicalCounts, or postLayout; "
                "found none",
            ),
        ],
        ids=["qubitParams", "qecScheme", "errorBudget", "emptyUnits", "unitItem", "noInput"],
    )
    def test_job_keys_are_named_alone(self, tmp_path, capsys, fields, message):
        code, out, err = run(capsys, "estimate", "--job", str(write_job(tmp_path, **fields)))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"type": "ConfigError", "message": message}


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
        # each row overwrites the swept slot of the one template it read, so
        # nesting well beyond what copy.deepcopy handles within the recursion
        # limit is never copied
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

    def test_non_numeric_field_rejected(self, tmp_path, capsys):
        job = write_job(tmp_path, qecScheme="surface_code")
        code, out, err = run(
            capsys, "sweep", "--job", str(job), "--param", "qecScheme", "--values", "1"
        )
        assert_config_error(code, out, err, "is not numeric")

    @pytest.mark.parametrize("field, values", [("numInputTs", (15, 20)), ("numOutputTs", (1, 3))])
    def test_list_item_sweep_writes_the_rows_of_separate_runs(self, tmp_path, capsys, field, values):
        job = write_job(tmp_path, distillationUnits=[UNIT_15_TO_1])
        code, out, err = run(
            capsys,
            "sweep",
            "--job",
            str(job),
            "--param",
            f"distillationUnits.0.{field}",
            "--values",
            ",".join(map(str, values)),
        )
        assert code == 0, err
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 2
        for value, row in zip(values, rows):
            alone = write_job(tmp_path, "alone.json", distillationUnits=[{**UNIT_15_TO_1, field: value}])
            assert row == self.row_alone(capsys, alone, value)

    @staticmethod
    def row_alone(capsys, job, value) -> str:
        """The sweep row for ``value`` of the report ``estimate`` writes for ``job``."""
        code, out, err = run(capsys, "estimate", "--job", str(job))
        assert code == 0, err
        report = json.loads(out)
        physical = report["physicalResourceEstimates"]
        expected = [
            float(value),
            physical["physicalQubits"],
            physical["runtime"],
            report["logicalQubitParameters"]["codeDistance"],
            physical["rqops"],
            report["resourceEstimatesBreakdown"]["numTFactoryCopies"],
            "",
        ]
        return ",".join(map(str, expected))

    def test_an_integer_field_stays_integral_after_a_fractional_row(self, tmp_path, capsys):
        # whether a value is written as an int is decided by the template's
        # value, not by the value an earlier row left in the slot
        job = write_job(tmp_path)
        param = "input.logicalCounts.tCount"
        code, out, err = run(capsys, "sweep", "--job", str(job), "--param", param, "--values", "1.5,2")
        assert code == 0, err
        first, second = out.strip().splitlines()[1:]
        assert first.startswith("1.5,") and "InvalidCountsError" in first
        counts = {"numQubits": 4, "tCount": 2, "measurementCount": 10}
        alone = write_job(tmp_path, "alone.json", input={"logicalCounts": counts})
        assert second == self.row_alone(capsys, alone, 2)

    @pytest.mark.parametrize("index", ["1", "-1", "01", "x", "", "9" * 5000])
    def test_a_bad_list_index_is_no_field(self, tmp_path, capsys, index):
        job = write_job(tmp_path, distillationUnits=[{"numInputTs": 15}])
        param = f"distillationUnits.{index}.numInputTs"
        code, out, err = run(capsys, "sweep", "--job", str(job), "--param", param, "--values", "1")
        assert_config_error(code, out, err, "job has no field at")

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


    def test_factory_runs_beyond_float_range_is_config_error(self, tmp_path, capsys):
        unit = dict(UNIT_15_TO_1, durationFormula="1e-300")
        job = str(write_job(tmp_path, distillationUnits=[unit]))
        code, out, err = run(capsys, "frontier", "--job", job, "--slowdown-grid", "1,1e300")
        assert (code, err) == (0, "")
        payload = strict_json(out)
        assert [p["slowdown"] for p in payload["points"]] == [1.0]
        [row] = payload["errors"]
        assert (row["type"], row["stage"]) == ("ConfigError", "t-factory-sizing")
        assert row["slowdown"] == 1e300 and "float range" in row["message"]


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

    def test_profile_dir_naming_a_file_exits_2(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "bespoke.json").write_text("{}")
        monkeypatch.setenv("FTQC_PROFILE_DIR", str(tmp_path / "bespoke.json"))
        code, out, err = run(capsys, "profiles")
        assert_config_error(code, out, err, "not a directory")

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
        code, out, err = run(capsys, "simulate")
        assert_config_error(code, out, err, "invalid choice: 'simulate'")

    def test_no_subcommand_is_usage_error(self, capsys):
        code, out, err = run(capsys)
        assert_config_error(code, out, err, "required: command")

    def test_help_is_text_on_stdout(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["estimate", "--help"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 0 and captured.err == ""
        assert captured.out.startswith("usage: ftqc-estimator estimate")

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

    @pytest.mark.parametrize("flag", ["--slowdown-grid", "--values"])
    @pytest.mark.parametrize(
        "text, fragment",
        [("x" * 100_000, "bad numeric list"), ("1," * 49_999 + "inf", "must be a finite number")],
        ids=["not-numbers", "not-finite"],
    )
    def test_long_numeric_list_is_echoed_short(self, tmp_path, capsys, flag, text, fragment):
        job = str(write_job(tmp_path))
        if flag == "--values":
            argv = ["sweep", "--job", job, "--param", "errorBudget", "--values", text]
        else:
            argv = ["frontier", "--job", job, "--slowdown-grid", text]
        code, out, err = run(capsys, *argv)
        assert_config_error(code, out, err, fragment)
        assert len(err.encode()) < 1000

    @pytest.mark.parametrize(
        "value, fragment",
        [(None, "job has no field at"), ("surface_code", "is not numeric")],
        ids=["no-field", "not-numeric"],
    )
    def test_long_param_is_echoed_short(self, tmp_path, capsys, value, fragment):
        # the path is read before the job is checked, so a long key may name it
        param = "x" * 6001
        fields = {} if value is None else {param: value}
        job = str(write_job(tmp_path, **fields))
        code, out, err = run(capsys, "sweep", "--job", job, "--param", param, "--values", "1")
        assert_config_error(code, out, err, fragment)
        assert len(err.encode()) < 1000

    def test_many_unrecognized_arguments_are_echoed_short(self, tmp_path, capsys):
        job = str(write_job(tmp_path))
        extra = [f"x{i}" for i in range(50_000)]
        code, out, err = run(capsys, "estimate", "--job", job, *extra)
        assert_config_error(code, out, err, "unrecognized arguments: x0 ")
        assert err.count("\n") == 1 and len(err.encode()) <= 2000


class TestOneProcessManyCommands:
    """The parser is built once per process and reused; every command still
    answers as it would in a fresh process."""

    def fresh(self, argv):
        """Exit code, stdout and stderr of ``argv`` in a new process."""
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from ftqc_estimator.cli import main; sys.exit(main())",
             *argv],
            env=dict(os.environ, PYTHONPATH=str(src), COLUMNS="80"),
            capture_output=True,
            timeout=120,
        )
        return done.returncode, done.stdout, done.stderr

    def here(self, capsys, argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on a usage error or --help
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out.encode(), captured.err.encode()

    def test_commands_in_sequence_answer_as_fresh_processes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("FTQC_PROFILE_DIR", raising=False)
        job = str(write_job(tmp_path))
        commands = [
            ["estimate", "--job", job],
            ["frontier", "--job", job, "--slowdown-grid", "1,2,4"],
            ["profiles"],
            ["estimate", "--format", "yaml"],  # an argparse error
            ["--help"],
            ["frontier", "--help"],
        ]
        cli._build_parser.cache_clear()
        answers = [self.here(capsys, argv) for argv in commands]
        assert cli._build_parser.cache_info().misses == 1
        assert [code for code, _, _ in answers] == [0, 0, 0, 2, 0, 0]
        for argv, answer in zip(commands, answers):
            assert answer == self.fresh(argv), argv


class TestOutputTheLocaleCannotEncode:
    """Under the C locale stdout encodes ASCII only, while a sweep row's
    error echoes a unit name that is not ASCII."""

    def sweep(self, tmp_path, *out):
        """The finished ``sweep`` process, run under the C locale."""
        unit = dict(UNIT_15_TO_1, name="é-unit", numInputTs=1)  # every row fails
        job = write_job(tmp_path, distillationUnits=[unit])
        env = {key: value for key, value in os.environ.items() if key != "PYTHONIOENCODING"}
        env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "ftqc_estimator.cli", "sweep", "--job", str(job),
             "--param", "errorBudget", "--values", "1e-3", *out],
            env=env, capture_output=True, timeout=120,
        )

    def test_out_file_is_written_as_utf8(self, tmp_path):
        out = tmp_path / "out.csv"
        done = self.sweep(tmp_path, "--out", str(out))
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        assert "ConfigError: distillation unit 'é-unit' must concentrate" in (
            out.read_text(encoding="utf-8"))

    def test_stdout_that_cannot_encode_the_output_is_a_config_error(self, tmp_path):
        done = self.sweep(tmp_path)
        assert (done.returncode, done.stdout) == (2, b"")
        assert strict_json(done.stderr.decode("ascii"))["error"]["type"] == "ConfigError"
