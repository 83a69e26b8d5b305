"""Every malformed job or trace ends as a clean failure.

Each node of a set of jobs that holds every kind of record, and each
node of some trace records, is replaced, in turn, by each of a fixed set
of bad values, and the job is run through ``cli.main``.  Whatever the
value, the run must exit 0 (the value happens to be valid), 2
(configuration error) or 3 (infeasible), never 1 (internal error), and
stdout and stderr must each be empty or strict JSON.
"""

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import pytest

from ftqc_estimator import cli

GOLDEN = Path(__file__).parent / "golden"

BAD_VALUES = (math.nan, math.inf, -1, 0.5, "abc", True, None, [], {}, 1e308)

# Inline qubit parameters and rotation-synthesis constants appear in no
# golden job, so this job carries them.
INLINE_JOB = {
    "input": {
        "logicalCounts": {
            "numQubits": 12,
            "tCount": 700,
            "rotationCount": 30,
            "rotationDepth": 10,
            "measurementCount": 30,
        }
    },
    "qubitParams": {
        "instructionSet": "majorana",
        "oneQubitMeasurementTime": 100.0,
        "twoQubitMeasurementTime": 100.0,
        "tGateTime": 100.0,
        "cliffordErrorRate": 1e-4,
        "readoutErrorRate": 1e-4,
        "tGateErrorRate": 0.05,
        "idleErrorRate": 1e-5,
    },
    "qecScheme": "floquet_code",
    "errorBudget": 1e-3,
    "rotationSynthesis": {"a": 0.53, "b": 5.3},
    "tFactoryConstraints": {"maxTFactoryCopies": 2, "maxLogicalCycleSlowdown": 4.0},
}


def golden(name):
    return json.loads((GOLDEN / f"{name}.json").read_text())


# case -> (job document, CLI arguments before and after the job path)
CASES = {
    "trace": (golden("gate_ns_e4_trace"), ("estimate",), ()),
    "counts_budget_parts": (golden("gate_us_e4_counts"), ("estimate",), ()),
    "post_layout_constraints": (golden("copy_limit_slowdown"), ("estimate",), ()),
    "scheme_and_units_frontier": (
        golden("frontier_custom_units"),
        ("frontier",),
        ("--slowdown-grid", "1,2,4"),
    ),
    "inline_params_synthesis": (INLINE_JOB, ("estimate",), ()),
}


def node_paths(node, prefix=()):
    """Paths to every node below ``node``, containers included."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


def replaced(document, path, value):
    copy = json.loads(json.dumps(document))
    node = copy
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return copy


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json_problem(text):
    if not text:
        return None
    try:
        json.loads(text, parse_constant=reject_constant)
    except ValueError as exc:
        return str(exc)
    return None


def run_problems(argv, where):
    """Run ``cli.main``; describe an exit 1 or a non-JSON output stream."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    problems = []
    if code not in (0, 2, 3):
        problems.append(f"{where}: exit {code}: {err.getvalue().strip()}")
    for stream, text in (("stdout", out.getvalue()), ("stderr", err.getvalue())):
        problem = strict_json_problem(text)
        if problem:
            problems.append(f"{where}: {stream}: {problem}")
    return problems


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_bad_value_fails_cleanly(case, tmp_path):
    document, before, after = CASES[case]
    shutil.copy(GOLDEN / "small_trace.jsonl", tmp_path)
    job = tmp_path / "job.json"
    problems = []
    for path in node_paths(document):
        for value in BAD_VALUES:
            job.write_text(json.dumps(replaced(document, path, value)))
            where = f"{'.'.join(map(str, path))} = {json.dumps(value)}"
            problems += run_problems([*before, "--job", str(job), *after], where)
    assert not problems, "\n".join(problems)


# the alloc, t and ccz records: ids in lists of four, one and three
@pytest.mark.parametrize("line", [0, 1, 2])
def test_every_bad_trace_value_fails_cleanly(line, tmp_path):
    lines = (GOLDEN / "small_trace.jsonl").read_text().splitlines()
    record = json.loads(lines[line])
    shutil.copy(GOLDEN / "gate_ns_e4_trace.json", tmp_path / "job.json")
    trace = tmp_path / "small_trace.jsonl"
    problems = []
    # the whole record, then its op, its id list and each id
    for path in [(), *node_paths(record)]:
        for value in BAD_VALUES:
            bad = replaced(record, path, value) if path else value
            trace.write_text("\n".join([*lines[:line], json.dumps(bad), *lines[line + 1 :]]) + "\n")
            where = f"line {line + 1} {'.'.join(map(str, path)) or 'record'} = {json.dumps(value)}"
            problems += run_problems(["estimate", "--job", str(tmp_path / "job.json")], where)
    assert not problems, "\n".join(problems)
