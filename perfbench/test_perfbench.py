"""Self-tests of the benchmark: generators, checker and tracer.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json

import pytest

import checker
import workloads
from run import EstimateBatch, FrontierCustomUnits, Phase, TraceIngest
from speed import REFERENCE_NS, SpeedProbe
from tracer import PER_LAYER, TARGETS, Tracer

from ftqc_estimator import jobs
from ftqc_estimator.report import EstimateReport

SMALL_TRACES = (2_000, 3_000)


@pytest.mark.parametrize("generate", [
    workloads.estimate_batch,
    workloads.frontier_custom_units,
    workloads.trace_ingest,
])
def test_same_seed_same_inputs(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_same_trace_seed_same_file_and_tallies(tmp_path):
    spec = workloads.trace_ingest(3, SMALL_TRACES)[1]["trace"]
    first = workloads.write_trace(tmp_path / "a.jsonl", spec)
    second = workloads.write_trace(tmp_path / "b.jsonl", spec)
    assert first == second
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert sum(1 for _ in open(tmp_path / "a.jsonl")) == spec["events"]


def test_generator_tallies_match_the_program(tmp_path):
    spec = workloads.trace_ingest(5, SMALL_TRACES)[0]["trace"]
    tallies = workloads.write_trace(tmp_path / "t.jsonl", spec)
    counted = jobs.count_trace(jobs.read_trace(tmp_path / "t.jsonl"))
    assert counted.as_mapping() == tallies
    assert tallies["numQubits"] == spec["width"]


def _one_pass(workload, tracer=None) -> Phase:
    return Phase(workload).run(0, passes=1, tracer=tracer)


def test_same_seed_same_digest(tmp_path):
    first = _one_pass(EstimateBatch(11, tmp_path, size=48))
    second = _one_pass(EstimateBatch(11, tmp_path, size=48))
    assert first.problems == [] and first.failed == 0
    assert first.digest() == second.digest()
    assert first.digest() != _one_pass(EstimateBatch(12, tmp_path, size=48)).digest()


def test_infeasible_jobs_answer_with_infeasibility_errors(tmp_path):
    workload = EstimateBatch(2, tmp_path, size=48)
    infeasible = [r for r in workload.requests if r["expect"]["outcome"] == "infeasible"]
    assert len(infeasible) == 3
    for request in infeasible:
        output = workload.call(request)
        assert json.loads(output)["error"]["type"] in checker.INFEASIBLE
        assert checker.check_error(output, request["expect"]) == []


def test_frontier_and_trace_workloads_pass_their_checks(tmp_path):
    frontier = _one_pass(FrontierCustomUnits(4, tmp_path / "f", size=2))
    traces = _one_pass(TraceIngest(4, tmp_path / "t", SMALL_TRACES))
    for phase in (frontier, traces):
        assert phase.problems == [] and phase.failed == 0


def _feasible_report(tmp_path) -> tuple[dict, dict]:
    workload = EstimateBatch(3, tmp_path, size=12)
    request = next(r for r in workload.requests
                   if r["expect"]["outcome"] == "report"
                   and "logicalCounts" in r["job"]["input"])
    text = workload.call(request)
    assert checker.check_report(text, request["expect"]) == []
    return json.loads(text), request["expect"]


CORRUPTIONS = {
    "physicalQubits": lambda r: r["physicalResourceEstimates"].update(
        physicalQubits=r["physicalResourceEstimates"]["physicalQubits"] + 1),
    "rqops": lambda r: r["physicalResourceEstimates"].update(
        rqops=r["physicalResourceEstimates"]["rqops"] * (1 + 2**-50)),
    "runtime": lambda r: r["physicalResourceEstimates"].update(
        runtime=r["physicalResourceEstimates"]["runtime"] * (1 + 2**-50)),
    "runsPerCopy": lambda r: r["tFactoryParameters"].update(runsPerCopy=0),
    "outputErrorRate": lambda r: r["tFactoryParameters"].update(
        outputErrorRate=r["resourceEstimatesBreakdown"]["requiredTStateError"] * 2),
    "codeDistance": lambda r: r["logicalQubitParameters"].update(
        codeDistance=r["logicalQubitParameters"]["codeDistance"] + 2),
    "tCount": lambda r: r["preLayoutLogicalResources"].update(
        tCount=r["preLayoutLogicalResources"]["tCount"] + 1),
}


@pytest.mark.parametrize("field", sorted(CORRUPTIONS))
def test_checker_rejects_one_corrupted_field(tmp_path, field):
    report, expect = _feasible_report(tmp_path)
    CORRUPTIONS[field](report)
    assert checker.check_report(json.dumps(report, indent=2), expect) != []


def test_checker_rejects_bad_frontiers():
    expect = {"outcome": "frontier", "grid": [1.0, 2.0, 4.0]}
    good = {"points": [{"slowdown": 1.0, "physicalQubits": 300, "runtime": 10.0},
                       {"slowdown": 2.0, "physicalQubits": 200, "runtime": 20.0}],
            "errors": []}
    assert checker.check_frontier(json.dumps(good), expect) == []
    not_pareto = json.loads(json.dumps(good))
    not_pareto["points"][1]["physicalQubits"] = 400
    off_grid = json.loads(json.dumps(good))
    off_grid["points"][1].update(slowdown=3.0, runtime=30.0)
    for bad in (not_pareto, off_grid):
        assert checker.check_frontier(json.dumps(bad), expect) != []


def test_checker_rejects_a_wrong_trace_tally(tmp_path):
    workload = TraceIngest(6, tmp_path, SMALL_TRACES)
    request = workload.requests[0]
    output = workload.call(request)
    assert checker.check_cli(output, request["expect"]) == []
    request["expect"]["counts"]["cczCount"] += 1
    assert checker.check_cli(output, request["expect"]) != []


def test_traced_digest_equals_untraced_and_originals_return(tmp_path):
    workload = EstimateBatch(9, tmp_path, size=48)
    run_job, to_json = jobs.run_job, EstimateReport.to_json
    plain = _one_pass(workload)
    with Tracer() as tracer:
        assert jobs.run_job is not run_job
        traced = _one_pass(workload, tracer)
    assert jobs.run_job is run_job and EstimateReport.to_json is to_json
    assert traced.digest() == plain.digest()
    assert tracer.missing == []
    metrics = tracer.metrics(traced.attempted)
    assert set(metrics) == {name for name, _, _ in PER_LAYER}
    assert metrics["pipeline.estimate.calls"]["value"] > 0.9
    assert metrics["formulas.evaluate.calls"]["value"] > 100


def test_missing_target_is_reported_not_zero(tmp_path):
    targets = tuple(
        (name, owner, "no_such_function" if name == "counts.read_trace" else attr)
        for name, owner, attr in TARGETS
    )
    with Tracer(targets) as tracer:
        _one_pass(EstimateBatch(1, tmp_path, size=6), tracer)
    assert tracer.missing == ["counts.read_trace"]
    metrics = tracer.metrics(6)
    assert metrics["counts.read_trace.ms"]["value"] is None
    assert metrics["counts.count_trace.ms"]["value"] == 0


def test_latencies_scale_by_the_kernel_times_around_them(tmp_path):
    speed = SpeedProbe(every_ms=0)
    phase = Phase(EstimateBatch(1, tmp_path, size=6), speed).run(0, passes=2)
    # a sample before every request and one after the last
    assert len(speed.samples_ns) == phase.attempted + 1
    # a machine at half the reference speed halves every latency
    speed.samples_ns[:] = [REFERENCE_NS * 2] * len(speed.samples_ns)
    assert phase.request_ms() == pytest.approx([(a + b) / 4e6 for a, b in phase.latencies_ns])
