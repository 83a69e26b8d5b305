"""Output checks that do not trust the program under test.

Nothing here imports the package.  Reports are checked against the
paper's identities and against what the workload generator put in
(``expect``); frontiers against Pareto order and the slowdown grid;
trace estimates against the generator's own tallies.  Every function
returns a list of problems, empty when the output passes.
"""

from __future__ import annotations

import json
import math

# crossing prefactor a and threshold p* of the paper's two schemes
SCHEMES = {"surface_code": (0.03, 0.01), "floquet_code": (0.07, 0.01)}

INFEASIBLE = frozenset({
    "AboveThresholdError",
    "DistanceExhaustedError",
    "NoFeasiblePipelineError",
    "FactoryConstraintInfeasibleError",
    "RuntimeTooShortError",
})

GROUPS = (
    "physicalResourceEstimates",
    "resourceEstimatesBreakdown",
    "logicalQubitParameters",
    "tFactoryParameters",
    "preLayoutLogicalResources",
    "assumedErrorBudget",
    "physicalQubitParameters",
    "assumptions",
)

COUNT_FIELDS = ("numQubits", "tCount", "rotationCount", "rotationDepth",
                "cczCount", "ccixCount", "measurementCount")


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _layout(q: int) -> int:
    """Logical qubits after layout: 2Q + ceil(sqrt(8Q)) + 1, or 0."""
    if q == 0:
        return 0
    root = math.isqrt(8 * q)
    return 2 * q + root + (root * root < 8 * q) + 1


def _effective_rate(qubits: dict) -> float:
    rate = max(qubits["cliffordErrorRate"], qubits["readoutErrorRate"])
    if qubits["instructionSet"] == "majorana" and qubits.get("idleErrorRate") is not None:
        rate = max(rate, qubits["idleErrorRate"])
    return rate


def check_report(text: str, expect: dict) -> list[str]:
    """Check one estimate report (JSON text) against ``expect``."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc.msg}"]
    if not isinstance(report, dict) or tuple(report) != GROUPS:
        return ["report does not carry the eight groups in order"]
    try:
        return _report_problems(report, expect)
    except (KeyError, TypeError) as exc:
        return [f"report field missing or mistyped: {exc!r}"]


def _report_problems(report: dict, expect: dict) -> list[str]:
    problems = []
    phys = report["physicalResourceEstimates"]
    brk = report["resourceEstimatesBreakdown"]
    lq = report["logicalQubitParameters"]
    tf = report["tFactoryParameters"]
    budget = report["assumedErrorBudget"]
    qubits = report["physicalQubitParameters"]
    logical = brk["logicalQubitsPostLayout"]
    depth = brk["algorithmicDepth"]

    if phys["physicalQubits"] != brk["algorithmicPhysicalQubits"] + brk["tFactoryPhysicalQubits"]:
        problems.append("physical qubits != algorithmic + factory")
    if brk["algorithmicPhysicalQubits"] != logical * lq["physicalQubitsPerLogicalQubit"]:
        problems.append("algorithmic qubits != logical qubits x qubits per logical qubit")
    if brk["tFactoryPhysicalQubits"] != tf["numCopies"] * tf["physicalQubitsPerCopy"]:
        problems.append("factory qubits != copies x qubits per copy")
    if phys["rqops"] != logical * lq["logicalClockSpeed"]:
        problems.append("rqops != logical qubits x clock speed (bit-exact)")
    if phys["runtime"] != depth * lq["logicalCycleTime"] * brk["slowdownApplied"]:
        problems.append("runtime != depth x cycle time x slowdownApplied (bit-exact)")
    if not _close(lq["logicalClockSpeed"] * lq["logicalCycleTime"], 1e9, 1e-12):
        problems.append("clock speed is not the inverse cycle time")
    if brk["slowdownApplied"] < expect["slowdown"]:
        problems.append("applied slowdown is below the requested one")

    demand = brk["numTStates"]
    if demand > 0:
        supply = tf["numCopies"] * tf["runsPerCopy"] * tf["tStatesPerRun"]
        if supply < demand:
            problems.append(f"T-state supply {supply} < demand {demand}")
        if not tf["outputErrorRate"] <= brk["requiredTStateError"]:
            problems.append("factory output error above the required T-state error")
        if not tf["rounds"]:
            problems.append("T states are consumed but the factory has no rounds")
    elif tf["numCopies"] != 0 or brk["tFactoryPhysicalQubits"] != 0:
        problems.append("factories provisioned for a program without T states")

    target = brk["requiredLogicalErrorRate"]
    if not _close(target, budget["logical"] / (logical * depth), 1e-12):
        problems.append("logical error target != logical budget / (qubits x depth)")
    d = lq["codeDistance"]
    a, threshold = SCHEMES[expect["scheme"]]
    ratio = _effective_rate(qubits) / threshold
    if d % 2 == 0 or d < 3:
        problems.append(f"code distance {d} is not an odd number >= 3")
    if not lq["logicalErrorRatePerCycle"] <= target:
        problems.append("per-cycle logical error above the target")
    if not _close(lq["logicalErrorRatePerCycle"], a * ratio ** ((d + 1) // 2)):
        problems.append("per-cycle logical error does not follow the crossing model")
    if d > 3 and not a * ratio ** ((d - 1) // 2) > target:
        problems.append(f"distance {d - 2} would already meet the target")

    parts = budget["logical"] + budget["tStates"] + budget["rotations"]
    if budget["total"] != expect["budget"] or not _close(parts, budget["total"], 1e-12):
        problems.append("assumed budget does not add up to the job's total")

    counts = expect.get("counts")
    job_input = expect.get("input", {})
    if "logicalCounts" in job_input:
        counts = job_input["logicalCounts"]
    if "postLayout" in job_input:
        post = job_input["postLayout"]
        if (logical, depth, demand) != (post["logicalQubitsPostLayout"],
                                        post["algorithmicDepth"], post["totalTStates"]):
            problems.append("post-layout aggregates were not passed through")
        if report["preLayoutLogicalResources"] is not None:
            problems.append("post-layout job reports pre-layout counts")
    elif counts is not None:
        seen = report["preLayoutLogicalResources"]
        want = {key: counts.get(key, 0) for key in COUNT_FIELDS}
        if seen != want:
            problems.append(f"pre-layout counts {seen} != expected {want}")
        if logical != _layout(want["numQubits"]):
            problems.append("logical qubits do not follow the layout rule")
    return problems


def check_error(text: str, expect: dict) -> list[str]:
    """Check a typed error payload: only infeasible-by-construction jobs may fail."""
    try:
        error = json.loads(text)["error"]
        kind = error["type"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return ["error payload is not a JSON error object"]
    if expect["outcome"] != "infeasible":
        return [f"feasible job failed with {kind}: {error.get('message')}"]
    if kind not in INFEASIBLE:
        return [f"infeasible job failed with {kind}, not an infeasibility error"]
    return []


def check_frontier(text: str, expect: dict) -> list[str]:
    """Check frontier JSON: Pareto order, grid provenance, runtime scaling."""
    try:
        data = json.loads(text)
        points = data["points"]
        errors = data["errors"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return ["frontier output is not a points/errors object"]
    grid = expect["grid"]
    problems = []
    if errors:
        problems.append(f"feasible frontier reported errors: {errors}")
    if not points:
        return problems + ["frontier has no points"]
    slowdowns = [p["slowdown"] for p in points]
    if any(s not in grid for s in slowdowns) or len(set(slowdowns)) != len(slowdowns):
        problems.append(f"frontier slowdowns {slowdowns} do not come from grid {grid}")
    for before, after in zip(points, points[1:]):
        if not (after["runtime"] > before["runtime"]
                and after["physicalQubits"] < before["physicalQubits"]):
            problems.append("frontier points are not in Pareto order")
            break
    # without copy limits the applied slowdown is the grid factor itself, and
    # the fastest point always survives pruning
    base = points[0]
    if base["slowdown"] != grid[0]:
        problems.append("the fastest grid point is missing from the frontier")
    else:
        for point in points:
            if point["runtime"] != base["runtime"] * point["slowdown"]:
                problems.append("frontier runtime is not the base runtime x slowdown")
                break
    return problems


def check_cli(text: str, expect: dict) -> list[str]:
    """Check captured ``cli.main`` output: ``exit <code>\\n`` + stdout + stderr."""
    head, _, body = text.partition("\n")
    if head != "exit 0":
        return [f"command ended with {head}: {body.strip()[:200]}"]
    if expect["outcome"] == "frontier":
        return check_frontier(body, expect)
    return check_report(body, expect)
