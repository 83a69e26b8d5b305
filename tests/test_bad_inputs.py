"""Every malformed job or trace ends as a clean failure.

Each node of a set of jobs that holds every kind of record, and each
node of some trace records, is replaced, in turn, by each of a fixed set
of bad values, a long string among them, and the job is run through
``cli.main``; so are jobs whose scheme and unit formulas are random trees
over the formula grammar.  Whatever the value, the run must exit 0 (the
value happens to be valid), 2 (configuration error) or 3 (infeasible),
never 1 (internal error); stdout and stderr must each be empty or strict
JSON, and neither may echo 200 characters of the long string.

Each run of the job sweep also has a recorded outcome in
``tests/golden/expected/bad_input_outcomes.json``: the exit code, the
error's type and stage from stderr ("-" when there is none) and the
sha256 of stdout, so a change to how jobs are decoded shows up as a
changed outcome.  To re-record after an intended change, run
``PYTHONPATH=src python tests/test_bad_inputs.py`` and review the diff.
"""

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ftqc_estimator import cli
from ftqc_estimator.formulas import DISTILLATION_VARIABLES, FUNCTIONS, QEC_SCHEME_VARIABLES

GOLDEN = Path(__file__).parent / "golden"
OUTCOMES = GOLDEN / "expected" / "bad_input_outcomes.json"

# a long string, of which no output stream may echo 200 characters in a row
LONG = "x" * 100_000
BAD_VALUES = (math.nan, math.inf, -1, 0, 0.5, 5e-324, "abc", True, None, [], {}, 1e308, LONG)

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


def run_cli(argv):
    """Run ``cli.main``: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def problems_of(code, out, err, where):
    """Describe an exit 1 or a non-JSON output stream."""
    problems = []
    if code not in (0, 2, 3):
        problems.append(f"{where}: exit {code}: {err.strip()}")
    for stream, text in (("stdout", out), ("stderr", err)):
        problem = strict_json_problem(text)
        if problem:
            problems.append(f"{where}: {stream}: {problem}")
        if LONG[:200] in text:
            problems.append(f"{where}: {stream}: echoes 200 characters of the long string")
    return problems


def run_problems(argv, where):
    return problems_of(*run_cli(argv), where)


def outcome(code, out, err):
    """The exit code, the error's type and stage ("-" when absent) and the
    sha256 of stdout, in one line."""
    error = json.loads(err)["error"] if err and not strict_json_problem(err) else {}
    digest = hashlib.sha256(out.encode()).hexdigest()
    return f"{code} {error.get('type', '-')} {error.get('stage', '-')} {digest}"


def sweep(case, directory):
    """Run ``case``'s job with each bad value at each node, in ``directory``:
    the problems found, and the outcome of each run by "path = value"."""
    document, before, after = CASES[case]
    shutil.copy(GOLDEN / "small_trace.jsonl", directory)
    job = directory / "job.json"
    problems, outcomes = [], {}
    # the whole job, then each node below it
    for path in [(), *node_paths(document)]:
        for value in BAD_VALUES:
            job.write_text(json.dumps(replaced(document, path, value) if path else value))
            where = f"{'.'.join(map(str, path)) or 'job'} = {json.dumps(value)[:20]}"
            result = run_cli([*before, "--job", str(job), *after])
            problems += problems_of(*result, where)
            assert where not in outcomes, where
            outcomes[where] = outcome(*result)
    return problems, outcomes


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_bad_value_fails_cleanly(case, tmp_path):
    problems, outcomes = sweep(case, tmp_path)
    assert not problems, "\n".join(problems)
    expected = json.loads(OUTCOMES.read_text())[case]
    changed = [
        f"{where}: {expected.get(where)} -> {outcomes.get(where)}"
        for where in sorted(expected.keys() | outcomes.keys())
        if expected.get(where) != outcomes.get(where)
    ]
    assert not changed, "\n".join(changed)


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
            where = f"line {line + 1} {'.'.join(map(str, path)) or 'record'} = {json.dumps(value)[:20]}"
            problems += run_problems(["estimate", "--job", str(tmp_path / "job.json")], where)
    assert not problems, "\n".join(problems)


# Formula text over the grammar: literals at the edges of float range,
# bound variables, every operator and function, so values overflow,
# underflow, vanish or leave a function's domain.
_EDGES = ("0", "1e-310", "1e-305", "1e303", "1e308")
_LITERALS = ("1", "2", "0.5", "1e300", *_EDGES)


def formula_text(default, variables):
    return st.recursive(
        st.sampled_from((*_LITERALS, *sorted(variables), f"({default})")),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/^"), inner).map(" ".join).map("({})".format),
            st.tuples(st.sampled_from(sorted(FUNCTIONS)), inner).map("{0[0]}({0[1]})".format),
            inner.map("-({})".format),
        ),
        max_leaves=6,
    )


def changed_formula(default, variables):
    """The working ``default`` formula times an edge literal, which gets past
    the other stages with its values at the edges, or a random tree that may
    hold ``default`` as a leaf."""
    return st.one_of(
        st.sampled_from(_EDGES).map(lambda edge: f"{edge} * ({default})"),
        formula_text(default, variables),
    )


FUZZ_SCHEME = {
    "name": "fuzzed",
    "crossingPrefactor": 0.03,
    "errorCorrectionThreshold": 0.01,
    "logicalCycleTime": "(4 * twoQubitGateTime + 2 * oneQubitMeasurementTime) * codeDistance",
    "physicalQubitsPerLogicalQubit": "2 * codeDistance ^ 2",
    "maxCodeDistance": 15,
}
FUZZ_UNIT = {
    "name": "fuzzed",
    "numInputTs": 15,
    "numOutputTs": 1,
    "failureProbabilityFormula": "15 * inputErrorRate",
    "outputErrorRateFormula": "35 * inputErrorRate ^ 3",
    "physicalQubitsFormula": "31 * physicalQubitsPerLogicalQubit",
    "durationFormula": "11 * logicalCycleTime",
}
FUZZ_INPUTS = (
    {"logicalCounts": {"numQubits": 4, "tCount": 1000, "measurementCount": 10}},
    {"postLayout": {"logicalQubitsPostLayout": 100, "algorithmicDepth": 10**6}},  # T-free
)
# one or two of the six formulas changed, the others left working
FORMULA_CHANGES = st.lists(
    st.one_of(
        *(
            st.tuples(st.just(key), changed_formula(FUZZ_SCHEME[key], QEC_SCHEME_VARIABLES))
            for key in ("logicalCycleTime", "physicalQubitsPerLogicalQubit")
        ),
        *(
            st.tuples(st.just(key), changed_formula(FUZZ_UNIT[key], DISTILLATION_VARIABLES))
            for key in FUZZ_UNIT
            if key.endswith("Formula")
        ),
    ),
    min_size=1,
    max_size=2,
).map(dict)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # one job file, rewritten
)
@given(job_input=st.sampled_from(FUZZ_INPUTS), changes=FORMULA_CHANGES)
def test_random_formulas_fail_cleanly(tmp_path, job_input, changes):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "input": job_input,
        "qubitParams": "qubit_gate_ns_e4",
        "qecScheme": {key: changes.get(key, value) for key, value in FUZZ_SCHEME.items()},
        "errorBudget": 1e-3,
        "distillationUnits": [{key: changes.get(key, value) for key, value in FUZZ_UNIT.items()}],
    }))
    where = json.dumps({"input": job_input, **changes})
    problems = run_problems(["estimate", "--job", str(job)], where)
    problems += run_problems(["frontier", "--job", str(job), "--slowdown-grid", "1,4,1e300"], where)
    assert not problems, "\n".join(problems)


def record() -> None:
    outcomes = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as directory:
            problems, outcomes[case] = sweep(case, Path(directory))
        assert not problems, "\n".join(problems)
    OUTCOMES.write_text(json.dumps(outcomes, indent=1) + "\n")
    print(f"{OUTCOMES.name}: {sum(map(len, outcomes.values()))} runs")


if __name__ == "__main__":
    record()
