"""T-state distillation pipelines and factory fleet sizing.

A distillation unit turns many noisy T states into fewer, cleaner ones;
its failure probability, output error rate, footprint, and duration come
from configurable formulas.  The pipeline search chains up to
``max_rounds`` units, feeding each round's output error into the next,
and keeps the cheapest chain (fewest physical qubits per factory copy,
then shortest run, then fewest rounds) that reaches the required T-state
fidelity.  One depth-first search covers every unit set: a unit whose
error formulas ignore the code distance contributes one branch per round
with its distance chosen when the chain is scored, any other unit one
branch per allowed distance.

Within one factory copy the rounds execute sequentially, so the copy's
footprint is its widest round and its run duration is the sum of the
rounds' expected durations, where a round with failure probability ``f``
costs ``duration / (1 - f)`` on average (retry-until-success).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Optional, Sequence

from . import formulas
from .errors import (
    ConfigError,
    FactoryConstraintInfeasibleError,
    NoFeasiblePipelineError,
    RuntimeTooShortError,
    read_choice,
    read_number,
    read_record,
    read_string,
)
from .formulas import FormulaExpr
from .qec import PhysicalQubitParams, QecScheme, evaluate_scheme_formulas

__all__ = [
    "Applicability",
    "DistillationUnit",
    "FactoryRound",
    "TFactoryPlan",
    "TFactoryConstraints",
    "DEFAULT_15_TO_1",
    "default_units",
    "required_t_state_error",
    "search_pipeline",
    "size_fleet",
    "MAX_UNITS",
]

#: Cap on the unit list.  It bounds the search, whose work grows with the
#: number of branches per round raised to the number of rounds.
MAX_UNITS = 8

# in the order of the formula parameters of DistillationUnit.from_strings
_FORMULA_FIELDS = (
    "failureProbabilityFormula",
    "outputErrorRateFormula",
    "physicalQubitsFormula",
    "durationFormula",
)
_UNIT_REQUIRED = frozenset({"name", "numInputTs", "numOutputTs", *_FORMULA_FIELDS})
_UNIT_FIELDS = _UNIT_REQUIRED | {"applicability"}
_CONSTRAINT_FIELDS = frozenset({"maxTFactoryCopies", "maxLogicalCycleSlowdown"})


class Applicability(str, Enum):
    PHYSICAL_ONLY = "physicalOnly"
    LOGICAL_ONLY = "logicalOnly"
    BOTH = "both"


@dataclass(frozen=True)
class DistillationUnit:
    """One distillation stage, e.g. a 15-to-1 round.

    The four formulas are evaluated with the distillation variable set:
    the qubit operation times, ``codeDistance``, ``cliffordErrorRate``,
    ``inputErrorRate``, ``physicalQubitsPerLogicalQubit``, and
    ``logicalCycleTime``.
    """

    name: str
    num_input_ts: int
    num_output_ts: int
    failure_probability: FormulaExpr
    output_error_rate: FormulaExpr
    physical_qubits: FormulaExpr
    duration: FormulaExpr
    applicability: Applicability = Applicability.BOTH

    def __post_init__(self):
        if self.num_output_ts < 1 or self.num_input_ts <= self.num_output_ts:
            raise ConfigError(
                f"distillation unit {self.name!r} must concentrate fidelity: "
                f"need 0 < outputs < inputs, got {self.num_input_ts} -> "
                f"{self.num_output_ts}"
            )

    @classmethod
    def from_strings(
        cls,
        name: str,
        num_input_ts: int,
        num_output_ts: int,
        failure_probability: str,
        output_error_rate: str,
        physical_qubits: str,
        duration: str,
        applicability: Applicability = Applicability.BOTH,
    ) -> "DistillationUnit":
        return cls(
            name=name,
            num_input_ts=num_input_ts,
            num_output_ts=num_output_ts,
            failure_probability=formulas.parse_formula(failure_probability),
            output_error_rate=formulas.parse_formula(output_error_rate),
            physical_qubits=formulas.parse_formula(physical_qubits),
            duration=formulas.parse_formula(duration),
            applicability=applicability,
        )

    @classmethod
    def from_mapping(cls, data: Mapping) -> "DistillationUnit":
        read_record(data, "distillation unit", _UNIT_FIELDS, _UNIT_REQUIRED)
        applicability = data.get("applicability", "both")
        return cls.from_strings(
            read_string(data["name"], "distillation unit name"),
            read_number(data["numInputTs"], "numInputTs", whole=True),
            read_number(data["numOutputTs"], "numOutputTs", whole=True),
            *(read_string(data[key], key) for key in _FORMULA_FIELDS),
            applicability=read_choice(applicability, "applicability", Applicability),
        )

    def as_mapping(self) -> dict:
        return {
            "name": self.name,
            "numInputTs": self.num_input_ts,
            "numOutputTs": self.num_output_ts,
            "failureProbabilityFormula": formulas.to_source(self.failure_probability),
            "outputErrorRateFormula": formulas.to_source(self.output_error_rate),
            "physicalQubitsFormula": formulas.to_source(self.physical_qubits),
            "durationFormula": formulas.to_source(self.duration),
            "applicability": self.applicability.value,
        }

    def allowed_distances(self, max_code_distance: int) -> tuple[int, ...]:
        """Code distances this unit may run at; distance 1 means physical level."""
        distances: list[int] = []
        if self.applicability in (Applicability.PHYSICAL_ONLY, Applicability.BOTH):
            distances.append(1)
        if self.applicability in (Applicability.LOGICAL_ONLY, Applicability.BOTH):
            distances.extend(range(3, max_code_distance + 1, 2))
        return tuple(distances)


DEFAULT_15_TO_1 = DistillationUnit.from_strings(
    name="15-to-1",
    num_input_ts=15,
    num_output_ts=1,
    failure_probability="15 * inputErrorRate",
    output_error_rate="35 * inputErrorRate ^ 3",
    physical_qubits="31 * physicalQubitsPerLogicalQubit",
    duration="11 * logicalCycleTime",
)


def default_units() -> tuple[DistillationUnit, ...]:
    return (DEFAULT_15_TO_1,)


@dataclass(frozen=True)
class FactoryRound:
    unit: DistillationUnit
    code_distance: int
    num_parallel_units: int

    def as_mapping(self) -> dict:
        return {
            "unitName": self.unit.name,
            "codeDistance": self.code_distance,
            "numParallelUnits": self.num_parallel_units,
        }


@dataclass(frozen=True)
class TFactoryPlan:
    """A distillation chain plus the fleet that executes it.

    ``rounds`` through ``t_states_per_run`` describe one factory copy;
    ``num_copies`` and ``runs_per_copy`` are filled in by
    :func:`size_fleet`.  Supply always covers demand:
    ``num_copies * runs_per_copy * t_states_per_run >= totalTStates``.
    """

    rounds: tuple[FactoryRound, ...]
    output_error_rate: float
    duration_per_run: float  # ns, expected including retries
    physical_qubits_per_copy: int
    t_states_per_run: int
    num_copies: int = 0
    runs_per_copy: int = 0

    @property
    def factory_physical_qubits(self) -> int:
        return self.num_copies * self.physical_qubits_per_copy

    def as_mapping(self) -> dict:
        return {
            "rounds": [r.as_mapping() for r in self.rounds],
            "outputErrorRate": self.output_error_rate,
            "durationPerRun": self.duration_per_run,
            "physicalQubitsPerCopy": self.physical_qubits_per_copy,
            "tStatesPerRun": self.t_states_per_run,
            "numCopies": self.num_copies,
            "runsPerCopy": self.runs_per_copy,
        }


#: Placeholder plan for workloads that consume no T states.
EMPTY_PLAN = TFactoryPlan(
    rounds=(),
    output_error_rate=0.0,
    duration_per_run=0.0,
    physical_qubits_per_copy=0,
    t_states_per_run=0,
)


@dataclass(frozen=True)
class TFactoryConstraints:
    """User limits on the factory fleet.

    When ``max_t_factory_copies`` is hit, the program may be slowed down
    by up to ``max_logical_cycle_slowdown`` (default: no slowdown) so
    fewer copies suffice.
    """

    max_t_factory_copies: Optional[int] = None
    max_logical_cycle_slowdown: Optional[float] = None

    @classmethod
    def from_mapping(cls, data: Mapping) -> "TFactoryConstraints":
        read_record(data, "tFactoryConstraints", _CONSTRAINT_FIELDS)
        copies = data.get("maxTFactoryCopies")
        slowdown = data.get("maxLogicalCycleSlowdown")
        if copies is not None:
            copies = read_number(copies, "maxTFactoryCopies", whole=True)
            if copies < 1:
                raise ConfigError(f"maxTFactoryCopies must be >= 1, got {copies!r}")
        if slowdown is not None:
            slowdown = read_number(slowdown, "maxLogicalCycleSlowdown")
            if slowdown < 1.0:
                raise ConfigError(f"maxLogicalCycleSlowdown must be >= 1, got {slowdown!r}")
        return cls(max_t_factory_copies=copies, max_logical_cycle_slowdown=slowdown)


def required_t_state_error(error_budget_t_states: float, total_t_states: int) -> float:
    """Per-state error target from the distillation budget share."""
    if not 0.0 < error_budget_t_states < 1.0:
        raise ValueError(f"budget must be in (0, 1), got {error_budget_t_states!r}")
    if total_t_states < 1:
        raise ValueError(f"need at least one T state, got {total_t_states}")
    return error_budget_t_states / total_t_states


# Variables whose value changes with the round's code distance.
_DISTANCE_VARIABLES = frozenset(
    {"codeDistance", "physicalQubitsPerLogicalQubit", "logicalCycleTime"}
)


def _parallel_units(sequence: Sequence[DistillationUnit]) -> list[int]:
    """Units per round so each round feeds the next; the last runs once."""
    counts = [1] * len(sequence)
    for k in range(len(sequence) - 2, -1, -1):
        needed = counts[k + 1] * sequence[k + 1].num_input_ts
        counts[k] = -(-needed // sequence[k].num_output_ts)
    return counts


def _search(
    units: Sequence[DistillationUnit],
    scheme: QecScheme,
    params: PhysicalQubitParams,
    input_error: float,
    required_error: float,
    max_rounds: int,
) -> Optional[TFactoryPlan]:
    """Depth-first search over chains of up to ``max_rounds`` rounds.

    Each branch appends one round to the chain and shares the prefix's
    work.  A unit whose error formulas ignore the code distance has the
    same failure and output error at every distance, so its round is one
    branch that keeps every allowed distance as an option; any other unit
    branches once per allowed distance.  A chain that reaches the target
    is scored, never extended: another round can only widen the copy and
    lengthen the run.

    Every formula reads its variables from one table per search, filled
    lazily: a code distance maps to the variables of a round at that
    distance (None where the scheme rejects distance 1), and None to the
    base variables, which the error formulas of a distance-free unit read.

    Scoring a chain: the narrowest feasible copy is
    ``cap = max_k min_d parallel_k * qubits_k(d)``, and under that cap each
    round independently takes its option with the least
    ``(duration, qubits, distance)``.  This gives the same optimum as
    trying every distance combination.  Chains are ranked by the key
    ``(cap, total duration, rounds)``; among equal keys the first chain
    in search order wins, i.e. the one that comes first when rounds are
    compared in unit-list order, then by ascending distance for units
    that branch per distance.
    """
    base = params.time_variables()
    base["cliffordErrorRate"] = params.clifford_error_rate
    table: dict[Optional[int], Optional[dict[str, float]]] = {None: base}

    def variables_at(distance: Optional[int]) -> Optional[dict[str, float]]:
        if distance not in table:
            try:
                cycle_time, footprint = evaluate_scheme_formulas(scheme, params, distance)
            except ConfigError:
                # scheme formulas only promise positivity for distance >= 3;
                # a physical-level round is then simply unavailable
                if distance != 1:
                    raise
                table[distance] = None
            else:
                table[distance] = {
                    **base,
                    "codeDistance": float(distance),
                    "physicalQubitsPerLogicalQubit": float(footprint),
                    "logicalCycleTime": cycle_time,
                }
        return table[distance]

    # (unit, distance its errors are evaluated at or None, distance options)
    branches = []
    for unit in units:
        distances = unit.allowed_distances(scheme.max_code_distance)
        used = formulas.variables(unit.failure_probability) | formulas.variables(
            unit.output_error_rate
        )
        if used & _DISTANCE_VARIABLES:
            branches.extend((unit, d, (d,)) for d in distances)
        else:
            branches.append((unit, None, distances))

    best_key: Optional[tuple] = None
    best_plan: Optional[TFactoryPlan] = None
    # per round: (unit, options as (expected duration, unit qubits, distance))
    chain: list[tuple[DistillationUnit, list[tuple[float, int, int]]]] = []

    def score(output_error: float) -> None:
        nonlocal best_key, best_plan
        parallel = _parallel_units([unit for unit, _ in chain])
        cap = max(m * min(q for _, q, _ in opts) for m, (_, opts) in zip(parallel, chain))
        picks = [
            min(o for o in opts if m * o[1] <= cap) for m, (_, opts) in zip(parallel, chain)
        ]
        total_duration = sum(duration for duration, _, _ in picks)
        key = (cap, total_duration, len(chain))
        if best_key is None or key < best_key:
            best_key = key
            best_plan = TFactoryPlan(
                rounds=tuple(
                    FactoryRound(unit=unit, code_distance=d, num_parallel_units=m)
                    for m, (unit, _), (_, _, d) in zip(parallel, chain, picks)
                ),
                output_error_rate=output_error,
                duration_per_run=total_duration,
                physical_qubits_per_copy=cap,
                t_states_per_run=chain[-1][0].num_output_ts,
            )

    def visit(error: float) -> None:
        for unit, at, distances in branches:
            row = variables_at(at)
            if row is None:
                continue
            env = {**row, "inputErrorRate": error}
            failure = formulas.evaluate(unit.failure_probability, env)
            if not 0.0 <= failure < 1.0:
                continue
            output = formulas.evaluate(unit.output_error_rate, env)
            if not 0.0 < output < 1.0:
                continue
            options = []
            for d in distances:
                row = variables_at(d)
                if row is None:
                    continue
                cost_env = env if d == at else {**row, "inputErrorRate": error}
                qubits = formulas.evaluate(unit.physical_qubits, cost_env)
                duration = formulas.evaluate(unit.duration, cost_env)
                # an overflowed or NaN cost makes the round unavailable, as a
                # non-positive one does
                if 1.0 <= qubits < math.inf and 0.0 < duration < math.inf:
                    options.append((duration / (1.0 - failure), math.ceil(qubits), d))
            # any completion needs at least one unit per round
            if not options or (
                best_key is not None and min(q for _, q, _ in options) > best_key[0]
            ):
                continue
            chain.append((unit, options))
            if output <= required_error:
                score(output)
            elif len(chain) < max_rounds:
                visit(output)
            chain.pop()

    visit(input_error)
    return best_plan


def search_pipeline(
    units: Sequence[DistillationUnit],
    scheme: QecScheme,
    params: PhysicalQubitParams,
    input_error: float,
    required_error: float,
    max_rounds: int = 3,
) -> TFactoryPlan:
    """Find the cheapest distillation chain reaching the required error.

    Considers every chain of 1 to ``max_rounds`` rounds, each round any
    unit at any allowed code distance, chaining output error into the
    next round's input.  Among feasible chains the winner minimizes
    physical qubits per copy, then run duration, then round count; the
    search is exact because it only skips chains that are provably worse
    (see :func:`_search` for the tie rule).  Raises
    :class:`NoFeasiblePipelineError` when nothing reaches the target.
    """
    if not units:
        raise ConfigError("at least one distillation unit is required")
    if len(units) > MAX_UNITS:
        raise ConfigError(f"at most {MAX_UNITS} distillation units are supported")
    if not 0.0 < input_error < 1.0:
        raise ValueError(f"input error must be in (0, 1), got {input_error!r}")
    if not 0.0 < required_error < 1.0:
        raise ValueError(f"required error must be in (0, 1), got {required_error!r}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")

    plan = _search(units, scheme, params, input_error, required_error, max_rounds)
    if plan is None:
        raise NoFeasiblePipelineError(
            f"no distillation chain of <= {max_rounds} rounds reaches error "
            f"{required_error:g} from input error {input_error:g}"
        )
    return plan


def size_fleet(
    plan: TFactoryPlan,
    total_t_states: int,
    algorithm_runtime: float,
    constraints: Optional[TFactoryConstraints] = None,
) -> tuple[TFactoryPlan, float]:
    """Size the factory fleet against the algorithm runtime.

    Returns the completed plan and the logical-cycle slowdown factor that
    was applied (1.0 when none).  Each copy runs
    ``floor(runtime / duration_per_run)`` times; enough copies are
    provisioned to cover ``total_t_states``.  If that exceeds the copy
    limit, the runtime is stretched by the smallest sufficient factor up
    to the allowed slowdown.
    """
    if total_t_states < 0:
        raise ValueError(f"total T states must be >= 0, got {total_t_states}")
    if total_t_states == 0:
        return replace(plan, num_copies=0, runs_per_copy=0), 1.0
    if algorithm_runtime <= 0.0:
        raise ValueError(f"runtime must be positive, got {algorithm_runtime!r}")
    if not math.isfinite(algorithm_runtime):
        raise ConfigError(f"the stretched runtime must be finite, got {algorithm_runtime!r} ns")
    constraints = constraints or TFactoryConstraints()
    duration = plan.duration_per_run
    per_run = plan.t_states_per_run

    runs = int(algorithm_runtime // duration)
    if runs >= 1:
        copies = -(-total_t_states // (runs * per_run))
        max_copies = constraints.max_t_factory_copies
        if max_copies is None or copies <= max_copies:
            return replace(plan, num_copies=copies, runs_per_copy=runs), 1.0

    if constraints.max_t_factory_copies is None:
        raise RuntimeTooShortError(duration, algorithm_runtime)

    # smallest stretch giving each copy enough runs to stay within the limit
    needed_runs = -(-total_t_states // (per_run * constraints.max_t_factory_copies))
    slowdown = needed_runs * duration / algorithm_runtime
    limit = constraints.max_logical_cycle_slowdown or 1.0
    if slowdown > limit:
        if duration > algorithm_runtime * limit:
            raise RuntimeTooShortError(duration, algorithm_runtime * limit)
        raise FactoryConstraintInfeasibleError(
            f"{constraints.max_t_factory_copies} copies need slowdown "
            f"{slowdown:g}, above the allowed {limit:g}"
        )
    slowdown = max(slowdown, 1.0)
    copies = -(-total_t_states // (needed_runs * per_run))
    return replace(plan, num_copies=copies, runs_per_copy=needed_runs), slowdown
