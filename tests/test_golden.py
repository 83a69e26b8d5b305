"""Golden reports: the CLI's exact output bytes for a fixed set of jobs.

Each ``tests/golden/<case>.json`` job has a recorded
``tests/golden/expected/<case>.json`` holding the exit code and the
exact stdout and stderr text of ``cli.main``.  Any change to what the
estimator computes or how it prints shows up here as a byte difference.

To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from ftqc_estimator import cli, formulas
from ftqc_estimator.errors import ConfigError
from ftqc_estimator.jobs import job_from_mapping, run_job
from ftqc_estimator.pipeline import ErrorBudget
from ftqc_estimator.qec import FLOQUET_CODE, SURFACE_CODE
from ftqc_estimator.report import EstimateReport
from ftqc_estimator.tfactory import DEFAULT_15_TO_1

GOLDEN = Path(__file__).parent / "golden"

# case -> CLI arguments after the job path: a slowdown grid makes a
# frontier case, a swept parameter a sweep case, anything else an estimate;
# a case named profiles* runs the profiles command, which takes no job
CASES = {
    "gate_ns_e3_counts": (),
    "gate_ns_e4_trace": (),
    "gate_us_e3_post_layout": (),
    "gate_us_e4_counts": (),
    "maj_ns_e4_counts": (),
    "maj_ns_e6_post_layout": (),
    "distance_free_units": (),
    "distance_dependent_units": (),
    "logical_only_units": (),
    "copy_limit_slowdown": (),
    "frontier_custom_units": ("--slowdown-grid", "1,1.5,2,4,8"),
    "no_feasible_pipeline": (),
    "above_threshold": (),
    "distance_exhausted": (),
    "frontier_sizing_fails_low": ("--slowdown-grid", "1,2,4,8,16,32,64"),
    "frontier_t_free": ("--slowdown-grid", "1,2,4"),
    "frontier_plan_fails_table": ("--slowdown-grid", "1,2", "--format", "table"),
    "runtime_too_short": (),
    "trace_crlf": (),
    "trace_double_alloc_then_bad_json": (),
    "trace_use_after_release": (),
    "estimate_table": ("--format", "table"),
    "sweep_error_row": ("--param", "errorBudget", "--values", "0.001,2"),
    "profiles_table": (),
    "profiles_structured": ("--format", "structured"),
    # the factory search's worst case: 8 distance-dependent units at d <= 51
    "eight_units_d51": (),
}


def run_case(name):
    extra = CASES[name]
    if name.startswith("profiles"):
        argv = ["profiles", *extra]
    else:
        command = (
            "frontier" if "--slowdown-grid" in extra
            else "sweep" if "--param" in extra else "estimate"
        )
        argv = [command, "--job", f"{name}.json", *extra]
    out, err = io.StringIO(), io.StringIO()
    # a relative job path keeps trace paths in error messages independent
    # of where the repository lives
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name, monkeypatch):
    monkeypatch.delenv("FTQC_PROFILE_DIR", raising=False)  # the built-in profiles
    expected = json.loads((GOLDEN / "expected" / f"{name}.json").read_text())
    assert run_case(name) == expected


def test_every_case_repeats_its_bytes_with_warm_formula_caches(monkeypatch):
    # the first pass fills empty parse and shape caches, the second reads them
    monkeypatch.delenv("FTQC_PROFILE_DIR", raising=False)
    monkeypatch.setattr(formulas, "_PARSED", {})
    monkeypatch.setattr(formulas, "_MAKERS", {})
    expected = {
        name: json.loads((GOLDEN / "expected" / f"{name}.json").read_text()) for name in CASES
    }
    for _ in range(2):
        for name in sorted(CASES):
            assert run_case(name) == expected[name], name
    assert formulas._PARSED and formulas._MAKERS


def test_a_sweep_over_inline_units_writes_the_rows_of_separate_runs(tmp_path, monkeypatch):
    job = str(GOLDEN / "distance_dependent_units.json")
    values = ["0.01", "0.0001", "1e-06", "1e-08"]

    def sweep(values, out):
        argv = ["sweep", "--job", job, "--param", "errorBudget", "--values", ",".join(values)]
        assert cli.main([*argv, "--out", str(out)]) == 0
        return out.read_text().splitlines()

    together = sweep(values, tmp_path / "together.csv")
    separate = []
    for i, value in enumerate(values):
        # each run parses and compiles its formulas afresh
        monkeypatch.setattr(formulas, "_PARSED", {})
        monkeypatch.setattr(formulas, "_MAKERS", {})
        header, row = sweep([value], tmp_path / f"row{i}.csv")
        separate.append(row)
    assert together == [header, *separate]
    assert all(row.endswith(",") for row in separate)  # every row succeeds


# the golden jobs whose estimate succeeds
SUCCEEDING = [
    "copy_limit_slowdown",
    "distance_dependent_units",
    "distance_free_units",
    "eight_units_d51",
    "estimate_table",
    "frontier_custom_units",
    "frontier_t_free",
    "gate_ns_e3_counts",
    "gate_ns_e4_trace",
    "gate_us_e3_post_layout",
    "gate_us_e4_counts",
    "logical_only_units",
    "maj_ns_e4_counts",
    "maj_ns_e6_post_layout",
    "sweep_error_row",
    "trace_crlf",
]


@pytest.mark.parametrize("name", SUCCEEDING)
def test_assumed_budget_fed_back_as_the_job_budget_gives_the_same_report(name):
    document = json.loads((GOLDEN / f"{name}.json").read_text())
    report = run_job(job_from_mapping(document, GOLDEN))
    assert type(report.assumed_error_budget) is ErrorBudget
    document["errorBudget"] = report.as_mapping()["assumedErrorBudget"]
    again = run_job(job_from_mapping(document, GOLDEN))
    assert type(again.assumed_error_budget) is ErrorBudget
    assert again.to_json() == report.to_json()


@pytest.mark.parametrize("name", SUCCEEDING)
def test_report_reads_back_as_an_equal_report(name):
    report = run_job(job_from_mapping(json.loads((GOLDEN / f"{name}.json").read_text()), GOLDEN))
    if name == "frontier_t_free":
        # a job with no T states has no rounds, and a tuple field reads a
        # non-empty list
        with pytest.raises(ConfigError, match="rounds must be a non-empty list$"):
            EstimateReport.from_mapping(report.as_mapping())
        return
    again = EstimateReport.from_mapping(report.as_mapping())
    assert again == report
    assert again.to_json() == report.to_json()


def load_golden(name):
    return job_from_mapping(json.loads((GOLDEN / f"{name}.json").read_text()), GOLDEN)


@pytest.mark.parametrize(
    "cycle_time, error",
    [
        ("log2(codeDistance - {d}) * oneQubitMeasurementTime", "FormulaDomainError"),
        ("100 * oneQubitMeasurementTime / (codeDistance - {d})", "DivisionByZeroError"),
    ],
)
def test_scheme_failing_only_at_distance_one_runs_every_round_logically(
    cycle_time, error, tmp_path, capsys
):
    document = json.loads((GOLDEN / "distance_dependent_units.json").read_text())
    path = tmp_path / "job.json"
    for d in (1, 3):
        document["qecScheme"]["logicalCycleTime"] = cycle_time.format(d=d)
        path.write_text(json.dumps(document))
        code = cli.main(["estimate", "--job", str(path)])
        out, err = capsys.readouterr()
        if d == 1:
            assert code == 0, err
            rounds = json.loads(out)["tFactoryParameters"]["rounds"]
            assert rounds and all(r["codeDistance"] >= 3 for r in rounds)
        else:
            # a distance the scheme must support: the error still ends the job
            assert code == 2
            assert json.loads(err)["error"]["type"] == error


def test_eight_unit_search_evaluates_no_more_formulas_than_recorded(monkeypatch):
    # the ceiling is the count when it was recorded; a change that does
    # less formula work lowers it
    job = load_golden("eight_units_d51")
    calls = 0
    evaluate = formulas.evaluate

    def counted(expr, env):
        nonlocal calls
        calls += 1
        return evaluate(expr, env)

    monkeypatch.setattr(formulas, "evaluate", counted)  # where tfactory and qec look it up
    run_job(job)
    assert 0 < calls <= 106_452


def test_concurrent_searches_keep_their_distance_tables_to_themselves():
    # each search writes inputErrorRate into the rows of its own table, so
    # searches running on threads at once must give the sequential reports
    names = [
        "eight_units_d51",
        "distance_dependent_units",
        "logical_only_units",
        "distance_free_units",
        "copy_limit_slowdown",
    ]
    jobs = [load_golden(name) for name in names] * 2
    sequential = [run_job(job).to_json() for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(3):
                assert list(pool.map(lambda job: run_job(job).to_json(), jobs)) == sequential
    finally:
        sys.setswitchinterval(interval)


# json.dumps of each built-in record's as_mapping, byte for byte
RECORDS = [
    (
        SURFACE_CODE,
        '{"name": "surface_code", "crossingPrefactor": 0.03, "errorCorrectionThreshold": 0.01, '
        '"logicalCycleTime": "(4.0 * twoQubitGateTime + 2.0 * oneQubitMeasurementTime) * '
        'codeDistance", "physicalQubitsPerLogicalQubit": "2.0 * codeDistance ^ 2.0", '
        '"maxCodeDistance": 51}',
    ),
    (
        FLOQUET_CODE,
        '{"name": "floquet_code", "crossingPrefactor": 0.07, "errorCorrectionThreshold": 0.01, '
        '"logicalCycleTime": "3.0 * codeDistance * oneQubitMeasurementTime", '
        '"physicalQubitsPerLogicalQubit": "4.0 * codeDistance ^ 2.0 + 8.0 * (codeDistance - 1.0)", '
        '"maxCodeDistance": 51}',
    ),
    (
        DEFAULT_15_TO_1,
        '{"name": "15-to-1", "numInputTs": 15, "numOutputTs": 1, '
        '"failureProbabilityFormula": "15.0 * inputErrorRate", '
        '"outputErrorRateFormula": "35.0 * inputErrorRate ^ 3.0", '
        '"physicalQubitsFormula": "31.0 * physicalQubitsPerLogicalQubit", '
        '"durationFormula": "11.0 * logicalCycleTime", "applicability": "both"}',
    ),
]


@pytest.mark.parametrize("record, expected", RECORDS, ids=[r.name for r, _ in RECORDS])
def test_builtin_record_is_byte_identical(record, expected):
    assert json.dumps(record.as_mapping()) == expected


def record() -> None:
    (GOLDEN / "expected").mkdir(exist_ok=True)
    for name in sorted(CASES):
        result = run_case(name)
        path = GOLDEN / "expected" / f"{name}.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(f"{path.name}: exit {result['exit']}")


if __name__ == "__main__":
    record()
