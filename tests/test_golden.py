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
from pathlib import Path

import pytest

from ftqc_estimator import cli

GOLDEN = Path(__file__).parent / "golden"

# case -> CLI arguments after the job path; default: a plain estimate
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
}


def run_case(name):
    extra = CASES[name]
    command = "frontier" if "--slowdown-grid" in extra else "estimate"
    out, err = io.StringIO(), io.StringIO()
    # a relative job path keeps trace paths in error messages independent
    # of where the repository lives
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--job", f"{name}.json", *extra])
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name):
    expected = json.loads((GOLDEN / "expected" / f"{name}.json").read_text())
    assert run_case(name) == expected


def record() -> None:
    (GOLDEN / "expected").mkdir(exist_ok=True)
    for name in sorted(CASES):
        result = run_case(name)
        path = GOLDEN / "expected" / f"{name}.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(f"{path.name}: exit {result['exit']}")


if __name__ == "__main__":
    record()
