"""The indented JSON writer against ``json.dumps(..., indent=2)``.

``records.indented_json`` writes reports, frontier documents and profile
listings.  Each must match ``json.dumps`` of the value's mapping with
``indent=2, allow_nan=False`` byte for byte, including the ``ValueError``
that a non-finite float raises.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftqc_estimator import cli, jobs
from ftqc_estimator.records import JsonRecord, indented_json
from ftqc_estimator.formulas import parse_formula
from ftqc_estimator.pipeline import FrontierResult
from ftqc_estimator.profiles import list_profiles
from ftqc_estimator.qec import InstructionSet
from ftqc_estimator.tfactory import DEFAULT_15_TO_1, Applicability, FactoryRound
from test_golden import GOLDEN, SUCCEEDING


def oracle(value) -> str:
    return json.dumps(value, indent=2, allow_nan=False)


def golden_report(name):
    document = json.loads((GOLDEN / f"{name}.json").read_text())
    return jobs.run_job(jobs.job_from_mapping(document, GOLDEN))


@pytest.mark.parametrize("name", SUCCEEDING)
def test_report_matches_json_dumps(name):
    report = golden_report(name)
    assert report.to_json() == oracle(report.as_mapping())


def test_frontier_document_with_points_and_errors_matches_json_dumps(monkeypatch):
    monkeypatch.delenv("FTQC_PROFILE_DIR", raising=False)
    job = jobs.load_job(GOLDEN / "frontier_sizing_fails_low.json")
    result = jobs.run_frontier(job, [1, 2, 4, 8, 16, 32, 64])
    assert result.points and result.errors
    document = {
        "points": [p.as_mapping() for p in result.points],
        "errors": [{"slowdown": s, **cli._failure(e)[1]} for s, e in result.errors],
    }
    assert indented_json(document) == oracle(document)
    assert indented_json({"points": [], "errors": []}) == oracle({"points": [], "errors": []})


def test_profile_listing_matches_json_dumps(monkeypatch):
    monkeypatch.delenv("FTQC_PROFILE_DIR", raising=False)
    listed = list_profiles()
    assert indented_json(listed) == oracle([p.as_mapping() for p in listed])


class Node(JsonRecord):
    """A record holding any value, to nest generated values in records."""

    first_value: object
    second: object = None


class Empty(JsonRecord):
    pass


_strings = st.one_of(
    st.text(),
    st.sampled_from(
        ["", "é", "☃ snow", "tab\there", "\x00\x1f\x7f", '"quoted" \\', "\U0001f600"]
    ),
)
_scalars = st.one_of(
    _strings,
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e16, 5e-324, 1.7976931348623157e308, 0.1]),
    st.integers(),
    st.integers(min_value=10**20, max_value=10**40),
    st.booleans(),
    st.none(),
    st.sampled_from([*Applicability, *InstructionSet]),
    st.sampled_from(["2 * x", "ceil(log2(1 / e)) ^ 2"]).map(parse_formula),
    st.just(Empty()),
    st.integers(min_value=1, max_value=51).map(lambda d: FactoryRound(DEFAULT_15_TO_1.name, d, 2)),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_strings, inner, max_size=4),
        st.builds(Node, inner, inner),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_values, _values)
def test_nested_values_match_json_dumps(first, second):
    record = Node(first, second)
    assert indented_json(record) == oracle(record.as_mapping())


def test_booleans_are_json_literals():
    assert indented_json(Node(True, [False])) == (
        '{\n  "firstValue": true,\n  "second": [\n    false\n  ]\n}'
    )


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_report_value_raises_jsons_error(bad):
    report = golden_report("gate_ns_e3_counts")
    estimates = report.physical_resource_estimates.__replace__(runtime=bad)
    broken = report.__replace__(physical_resource_estimates=estimates)
    with pytest.raises(ValueError) as expected:
        oracle(broken.as_mapping())
    assert str(expected.value) == f"Out of range float values are not JSON compliant: {bad!r}"
    with pytest.raises(ValueError) as got:
        broken.to_json()
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_non_finite_frontier_point_raises_jsons_error(bad, monkeypatch, tmp_path):
    monkeypatch.delenv("FTQC_PROFILE_DIR", raising=False)
    job = jobs.load_job(GOLDEN / "frontier_custom_units.json")
    point = jobs.run_frontier(job, [1]).points[0]
    broken = FrontierResult(points=(point.__replace__(runtime=bad),), errors=())
    monkeypatch.setattr(jobs, "run_frontier", lambda job, grid: broken)
    out = tmp_path / "frontier.json"
    message = f"Out of range float values are not JSON compliant: {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cli.cmd_frontier(str(GOLDEN / "frontier_custom_units.json"), [1], str(out))
    assert not out.exists()
