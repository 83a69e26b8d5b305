"""Seeded input generators for the benchmark workloads.

Every generator takes the seed as an argument and uses its own
``random.Random``, so the same seed always yields the same inputs.  The
generators import nothing from the package under test: each request
carries an ``expect`` record built from the generator's own knowledge
(the chosen profile's scheme, the budget, the input counts, whether the
job is infeasible by construction, the trace tallies), which the
checker compares the program's output against.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# Built-in profile name -> default QEC scheme name (the profiles ship with
# these defaults; the checker keeps the scheme constants).
PROFILES = (
    ("qubit_gate_ns_e3", "surface_code"),
    ("qubit_gate_ns_e4", "surface_code"),
    ("qubit_gate_us_e3", "surface_code"),
    ("qubit_gate_us_e4", "surface_code"),
    ("qubit_maj_ns_e4", "floquet_code"),
    ("qubit_maj_ns_e6", "floquet_code"),
)

# Gate-based qubits whose error rates sit above the 1 % surface-code
# threshold: no code distance can suppress their errors.
ABOVE_THRESHOLD_QUBITS = {
    "instructionSet": "gateBased",
    "oneQubitGateTime": 50.0,
    "twoQubitGateTime": 50.0,
    "oneQubitMeasurementTime": 100.0,
    "tGateTime": 50.0,
    "cliffordErrorRate": 0.012,
    "readoutErrorRate": 0.012,
    "tGateErrorRate": 0.012,
}

FRONTIER_GRID = (1.0, 2.0, 4.0)

# Event count of each trace slot; contents and widths are seeded.
TRACE_EVENTS = (10_000, 30_000, 60_000, 120_000, 250_000)
TRACE_WIDTHS = ((50, 100), (100, 300), (300, 1000), (1000, 2500), (2500, 5000))


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def _log_int(rng: random.Random, low: int, high: int) -> int:
    return int(round(_log_uniform(rng, low, high)))


def _counts(rng: random.Random, rotations: bool) -> dict:
    counts = {
        "numQubits": _log_int(rng, 2, 5000),
        "tCount": _log_int(rng, 1_000, 10_000_000),
        "cczCount": 0 if rng.random() < 0.4 else _log_int(rng, 1, 100_000),
        "ccixCount": 0 if rng.random() < 0.7 else _log_int(rng, 1, 10_000),
        "measurementCount": _log_int(rng, 1, 100_000),
    }
    if rotations:
        count = _log_int(rng, 10, 1_000_000)
        counts["rotationCount"] = count
        counts["rotationDepth"] = max(1, min(count, _log_int(rng, count // 100 + 1, count)))
    return counts


def _budget(rng: random.Random):
    total = _log_uniform(rng, 1e-6, 1e-2)
    if rng.random() < 0.15:
        # halving and quartering are exact, so the parts sum to the total
        return total, {"total": total, "logical": total / 2, "tStates": total / 4,
                       "rotations": total / 4}
    return total, total


def _infeasible_job(rng: random.Random, kind: int) -> tuple[dict, str]:
    """A job no estimate can satisfy, and the scheme it names."""
    budget = _log_uniform(rng, 1e-6, 1e-2)
    if kind == 0:
        counts = _counts(rng, rotations=False)
        return {
            "input": {"logicalCounts": counts},
            "qubitParams": ABOVE_THRESHOLD_QUBITS,
            "qecScheme": "surface_code",
            "errorBudget": budget,
        }, "surface_code"
    if kind == 1:
        # 15-to-1 suppresses 0.05 to about 1e-15 in three rounds; a
        # billion-fold smaller per-state target is out of reach
        profile, scheme = PROFILES[4]
        return {
            "input": {"postLayout": {
                "logicalQubitsPostLayout": _log_int(rng, 10, 1000),
                "algorithmicDepth": 10**12,
                "totalTStates": 10**12,
            }},
            "qubitParams": profile,
            "errorBudget": 1e-6,
        }, scheme
    # one factory copy emits one T state per run of >= 11 short cycles, far
    # below a demand of 1000 T states per algorithm cycle
    profile, scheme = PROFILES[rng.randrange(4)]
    depth = _log_int(rng, 1_000, 100_000)
    return {
        "input": {"postLayout": {
            "logicalQubitsPostLayout": _log_int(rng, 10, 1000),
            "algorithmicDepth": depth,
            "totalTStates": 1000 * depth,
        }},
        "qubitParams": profile,
        "errorBudget": budget,
        "tFactoryConstraints": {"maxTFactoryCopies": 1},
    }, scheme


def estimate_batch(seed: int, size: int = 1200) -> list[dict]:
    """Library-path estimate requests: ``{"job", "slowdown", "expect"}``.

    The mix is stratified by position so that every seed has the same
    share of each profile, input mode and infeasible kind: 1 in 16 jobs is
    infeasible by construction, the rest cover all six profiles, counts
    with and without rotations, post-layout aggregates, budgets from 1e-6
    to 1e-2, copy limits and slowdowns, with the default 15-to-1 unit.
    """
    rng = random.Random(f"estimate-batch/{seed}")
    requests = []
    for i in range(size):
        if i % 16 == 5:
            job, scheme = _infeasible_job(rng, (i // 16) % 3)
            requests.append({"job": job, "slowdown": 1.0, "expect": {
                "outcome": "infeasible", "scheme": scheme}})
            continue
        profile, scheme = PROFILES[i % 6]
        mode = (i // 6) % 3
        total, budget = _budget(rng)
        if mode == 2:
            depth = _log_int(rng, 1_000, 10_000_000_000)
            # at most 1e8 T states keep the per-state target of the 0.05
            # T-error profile within reach of three 15-to-1 rounds
            tstates = 0 if rng.random() < 0.15 else _log_int(rng, 1, min(2 * depth, 10**8))
            job_input = {"postLayout": {
                "logicalQubitsPostLayout": _log_int(rng, 10, 20_000),
                "algorithmicDepth": depth,
                "totalTStates": tstates,
            }}
        else:
            job_input = {"logicalCounts": _counts(rng, rotations=mode == 1)}
        job = {"input": job_input, "qubitParams": profile, "errorBudget": budget}
        if rng.random() < 0.15:
            job["tFactoryConstraints"] = {
                "maxTFactoryCopies": rng.randrange(5, 101),
                "maxLogicalCycleSlowdown": 1000.0,
            }
        slowdown = 1.0 if rng.random() < 0.8 else rng.choice((1.5, 2.0, 3.0))
        requests.append({"job": job, "slowdown": slowdown, "expect": {
            "outcome": "report", "scheme": scheme, "budget": total,
            "slowdown": slowdown, "input": job_input}})
    return requests


def _scaled(rng: random.Random, value: float) -> str:
    return repr(round(value * rng.uniform(0.95, 1.05), 6))


def _distance_dependent_unit(rng: random.Random, shape: int, index: int) -> dict:
    """A unit whose output error depends on the code distance it runs at.

    The error floor follows the crossing model, as for the logical-level
    15-to-1 and 20-to-4 units of Litinski (arXiv:1905.06903).
    """
    floor = (f"{_scaled(rng, 0.1)} * (cliffordErrorRate / 0.01) ^ "
             "((codeDistance + 1) / 2)")
    if shape == 0:
        unit = {"numInputTs": 15, "numOutputTs": 1,
                "failureProbabilityFormula": "15 * inputErrorRate",
                "outputErrorRateFormula": f"35 * inputErrorRate ^ 3 + {floor}",
                "physicalQubitsFormula": f"{_scaled(rng, 31)} * physicalQubitsPerLogicalQubit",
                "durationFormula": f"{_scaled(rng, 11)} * logicalCycleTime"}
    elif shape == 1:
        unit = {"numInputTs": 20, "numOutputTs": 4,
                "failureProbabilityFormula": "20 * inputErrorRate",
                "outputErrorRateFormula": f"22 * inputErrorRate ^ 2 + {floor}",
                "physicalQubitsFormula": f"{_scaled(rng, 28)} * physicalQubitsPerLogicalQubit",
                "durationFormula": f"{_scaled(rng, 14)} * logicalCycleTime"}
    else:
        unit = {"numInputTs": 11, "numOutputTs": 1,
                "failureProbabilityFormula": "11 * inputErrorRate",
                "outputErrorRateFormula": f"{_scaled(rng, 100)} * inputErrorRate ^ 2 / codeDistance",
                "physicalQubitsFormula": f"{_scaled(rng, 20)} * physicalQubitsPerLogicalQubit",
                "durationFormula": f"{_scaled(rng, 7)} * logicalCycleTime"}
    unit["name"] = f"dd-{index}-{shape}"
    unit["applicability"] = "logicalOnly"
    return unit


DEFAULT_UNIT = {
    "name": "15-to-1",
    "numInputTs": 15,
    "numOutputTs": 1,
    "failureProbabilityFormula": "15 * inputErrorRate",
    "outputErrorRateFormula": "35 * inputErrorRate ^ 3",
    "physicalQubitsFormula": "31 * physicalQubitsPerLogicalQubit",
    "durationFormula": "11 * logicalCycleTime",
    "applicability": "both",
}


# The profiles' default schemes, with the largest code distance cut to 19
# so that one exhaustive factory search stays well under a second.
FRONTIER_SCHEMES = {
    "surface_code": {
        "name": "surface_code",
        "crossingPrefactor": 0.03,
        "errorCorrectionThreshold": 0.01,
        "logicalCycleTime": "(4 * twoQubitGateTime + 2 * oneQubitMeasurementTime) * codeDistance",
        "physicalQubitsPerLogicalQubit": "2 * codeDistance ^ 2",
        "maxCodeDistance": 19,
    },
    "floquet_code": {
        "name": "floquet_code",
        "crossingPrefactor": 0.07,
        "errorCorrectionThreshold": 0.01,
        "logicalCycleTime": "3 * codeDistance * oneQubitMeasurementTime",
        "physicalQubitsPerLogicalQubit": "4 * codeDistance ^ 2 + 8 * (codeDistance - 1)",
        "maxCodeDistance": 19,
    },
}


def _jitter(rng: random.Random, value: float) -> float:
    return value * rng.uniform(0.9, 1.1)


def _frontier_counts(rng: random.Random, scale: int, rotations: bool) -> dict:
    counts = {
        "numQubits": round(_jitter(rng, 15 * scale)),
        "tCount": round(_jitter(rng, 7_000 * scale)),
        "cczCount": round(_jitter(rng, 300 * scale)),
        "measurementCount": round(_jitter(rng, 300 * scale)),
    }
    if rotations:
        count = round(_jitter(rng, 300 * scale))
        counts["rotationCount"] = count
        counts["rotationDepth"] = max(1, count // 10)
    return counts


def frontier_custom_units(seed: int, size: int = 102) -> list[dict]:
    """Frontier requests whose unit sets force the exhaustive search.

    Each job carries 2 units, or 3 in every third group of six, at least
    one of them distance-dependent, and runs over ``FRONTIER_GRID``.  The
    search cost swings by orders of
    magnitude with the unit shapes and the T-state target, so the job
    structure (profile, unit count and shapes, program size, budget
    decade) is fixed by position and the seed only jitters coefficients,
    counts and budgets.  Every seed then draws the same mix of cheap and
    expensive searches.
    """
    rng = random.Random(f"frontier-custom-units/{seed}")
    requests = []
    for i in range(size):
        profile, scheme = PROFILES[i % 6]
        num_units = 3 if (i // 6) % 3 == 2 else 2
        shapes = [(i // 12 + k) % 3 for k in range(num_units - 1)]
        units = [_distance_dependent_unit(rng, shape, k) for k, shape in enumerate(shapes)]
        units.insert(i % num_units, dict(DEFAULT_UNIT))
        total = _jitter(rng, 1e-4)
        job_input = {"logicalCounts": _frontier_counts(
            rng, scale=(1, 3)[(i // 36) % 2], rotations=i % 2 == 1)}
        job = {"input": job_input, "qubitParams": profile,
               "qecScheme": FRONTIER_SCHEMES[scheme], "errorBudget": total,
               "distillationUnits": units}
        requests.append({"job": job, "grid": list(FRONTIER_GRID), "expect": {
            "outcome": "frontier", "grid": list(FRONTIER_GRID)}})
    return requests


def trace_ingest(seed: int, events: tuple = TRACE_EVENTS) -> list[dict]:
    """Trace-estimate requests: one per slot of ``events`` (event counts).

    Each request names a trace spec; :func:`write_trace` materializes it
    and returns the tallies the report must show.
    """
    rng = random.Random(f"trace-ingest/{seed}")
    requests = []
    for slot, (length, (low, high)) in enumerate(zip(events, TRACE_WIDTHS)):
        profile, scheme = PROFILES[rng.randrange(6)]
        total, budget = _budget(rng)
        requests.append({
            "trace": {"events": length, "width": rng.randrange(low, high + 1),
                      "seed": rng.randrange(2**32), "file": f"trace-{slot}.jsonl"},
            "job": {"input": {"tracePath": f"trace-{slot}.jsonl"},
                    "qubitParams": profile, "errorBudget": budget},
            "expect": {"outcome": "report", "scheme": scheme, "budget": total,
                       "slowdown": 1.0},
        })
    return requests


# op -> (share of gate events, arity)
_OP_MIX = (
    ("clifford", 0.40, None),
    ("t", 0.20, 1),
    ("rz", 0.15, 1),
    ("measure", 0.10, 1),
    ("ccz", 0.08, 3),
    ("ccix", 0.04, 3),
)
_LAYERED = ("t", "rz", "ccz", "ccix", "measure")


def write_trace(path: Path, spec: dict) -> dict:
    """Write a trace of ``spec["events"]`` lines; return its expected counts.

    The trace allocates ``width`` qubits, then mixes gate events with
    releases and re-allocations of the same ids, so the peak width is
    exactly ``width``.  The rotation depth is tallied here with the
    paper's ASAP layering rule: a t/rz/ccz/ccix/measure event lands one
    layer above the latest layer of its qubits, cliffords are
    transparent, and a released id keeps its wire when re-allocated.
    """
    rng = random.Random(spec["seed"])
    width = spec["width"]
    total = spec["events"]
    ops = [op for op, _, _ in _OP_MIX]
    weights = [share for _, share, _ in _OP_MIX]
    arity = {op: n for op, _, n in _OP_MIX}
    tallies = dict.fromkeys(_LAYERED, 0)
    last_layer = [0] * width
    rotation_layers = set()
    live = list(range(width))
    released: list[int] = []
    lines = [json.dumps({"op": "alloc", "q": list(range(start, min(width, start + 64)))})
             for start in range(0, width, 64)]
    written = 0
    with open(path, "w") as out:
        while written + len(lines) < total:
            if len(lines) >= 4096:
                out.write("\n".join(lines) + "\n")
                written += len(lines)
                lines.clear()
            roll = rng.random()
            if roll < 0.02 and len(live) > 3:
                q = live.pop(rng.randrange(len(live)))
                released.append(q)
                lines.append(f'{{"op":"release","q":[{q}]}}')
                continue
            if roll < 0.04 and released:
                q = released.pop(rng.randrange(len(released)))
                live.append(q)
                lines.append(f'{{"op":"alloc","q":[{q}]}}')
                continue
            op = rng.choices(ops, weights)[0]
            qubits = rng.sample(live, arity[op] or rng.choice((1, 2)))
            lines.append(json.dumps({"op": op, "q": qubits}))
            if op in tallies:
                tallies[op] += 1
                layer = 1 + max(last_layer[q] for q in qubits)
                for q in qubits:
                    last_layer[q] = layer
                if op == "rz":
                    rotation_layers.add(layer)
        out.write("\n".join(lines) + "\n")
    return {
        "numQubits": width,
        "tCount": tallies["t"],
        "rotationCount": tallies["rz"],
        "rotationDepth": len(rotation_layers),
        "cczCount": tallies["ccz"],
        "ccixCount": tallies["ccix"],
        "measurementCount": tallies["measure"],
    }
