"""T-state distillation pipelines and factory fleet sizing.

A distillation unit turns many noisy T states into fewer, cleaner ones;
its failure probability, output error rate, footprint, and duration come
from configurable formulas.  The pipeline search chains up to
``MAX_ROUNDS`` units, feeding each round's output error into the next,
and keeps the cheapest chain (fewest physical qubits per factory copy,
then shortest run, then fewest rounds) that reaches the required T-state
fidelity.  One depth-first search covers every unit set: a unit whose
error formulas ignore the code distance contributes one branch per round
with its distance chosen when the chain is scored, any other unit one
branch per allowed distance.  Each visit scores the chains that reach the
target first and then extends the other prefixes cheapest first, so a
wide search finds the winning footprint early and its bounds cut the
rest; ties and formula errors still resolve as in unit-list order.

Within one factory copy the rounds execute sequentially, so the copy's
footprint is its widest round and its run duration is the sum of the
rounds' expected durations, where a round with failure probability ``f``
costs ``duration / (1 - f)`` on average (retry-until-success).

An argument outside a function's domain raises :class:`ConfigError`; a
T-state budget share outside (0, 1) raises :class:`InvalidPartitionError`.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import Optional, Sequence

from . import formulas
from .errors import (
    ConfigError,
    FactoryConstraintInfeasibleError,
    InvalidPartitionError,
    NoFeasiblePipelineError,
    RuntimeTooShortError,
    _shown,
)
from .formulas import FormulaExpr
from .qec import _DISTANCE_VARIABLES, PhysicalQubitParams, QecScheme, _Rows
from .records import JsonRecord

__all__ = [
    "Applicability",
    "DistillationUnit",
    "FactoryRound",
    "TFactoryPlan",
    "TFactoryConstraints",
    "DEFAULT_15_TO_1",
    "required_t_state_error",
    "search_pipeline",
    "size_fleet",
    "MAX_UNITS",
    "MAX_ROUNDS",
]

#: Caps on the unit list and on a chain's rounds.  They bound the search,
#: whose work grows with the branches per round raised to the rounds.
MAX_UNITS = 8
MAX_ROUNDS = 3


class Applicability(str, Enum):
    PHYSICAL_ONLY = "physicalOnly"
    LOGICAL_ONLY = "logicalOnly"
    BOTH = "both"


class DistillationUnit(JsonRecord):
    """One distillation stage, e.g. a 15-to-1 round.

    The four formulas are evaluated with the distillation variable set,
    :data:`formulas.DISTILLATION_VARIABLES`.
    """

    name: str
    num_input_ts: int
    num_output_ts: int
    failure_probability: FormulaExpr
    output_error_rate: FormulaExpr
    physical_qubits: FormulaExpr
    duration: FormulaExpr
    applicability: Applicability = Applicability.BOTH

    _RENAMED = {
        "failure_probability": "failureProbabilityFormula",
        "output_error_rate": "outputErrorRateFormula",
        "physical_qubits": "physicalQubitsFormula",
        "duration": "durationFormula",
    }

    def __post_init__(self):
        if self.num_output_ts < 1 or self.num_input_ts <= self.num_output_ts:
            raise ConfigError(
                f"distillation unit {_shown(repr(self.name))} must concentrate fidelity: "
                f"need 0 < outputs < inputs, got {self.num_input_ts} -> "
                f"{self.num_output_ts}"
            )

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


class FactoryRound(JsonRecord):
    """A round of a chain: its unit, by name, at a code distance and width."""

    unit_name: str
    code_distance: int
    num_parallel_units: int


class TFactoryPlan(JsonRecord):
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


#: Placeholder plan for workloads that consume no T states.
EMPTY_PLAN = TFactoryPlan(
    rounds=(),
    output_error_rate=0.0,
    duration_per_run=0.0,
    physical_qubits_per_copy=0,
    t_states_per_run=0,
)


class TFactoryConstraints(JsonRecord):
    """User limits on the factory fleet.

    When ``max_t_factory_copies`` is hit, the program may be slowed down
    by up to ``max_logical_cycle_slowdown`` (default: no slowdown) so
    fewer copies suffice.
    """

    max_t_factory_copies: Optional[int] = None
    max_logical_cycle_slowdown: Optional[float] = None

    def __post_init__(self):
        for attr, key in self._json_fields():
            value = getattr(self, attr)
            if value is not None and not value >= 1:  # NaN fails too
                raise ConfigError(f"{key} must be >= 1, got {value!r}")


def required_t_state_error(error_budget_t_states: float, total_t_states: int) -> float:
    """Per-state error target from the distillation budget share."""
    if total_t_states < 1:
        raise ConfigError(f"need at least one T state, got {total_t_states}")
    if total_t_states > sys.float_info.max:
        raise ConfigError("T states must stay within float range")
    if not 0.0 < error_budget_t_states < 1.0:
        raise InvalidPartitionError("the tStates error budget share must be in (0, 1)")
    return error_budget_t_states / total_t_states


def _parallel_units(sequence: Sequence[DistillationUnit], last: int = 1) -> list[int]:
    """Units per round so each round feeds the next; the last runs ``last`` times."""
    counts = [last] * len(sequence)
    for k in range(len(sequence) - 2, -1, -1):
        needed = counts[k + 1] * sequence[k + 1].num_input_ts
        counts[k] = -(-needed // sequence[k].num_output_ts)
    return counts


def search_pipeline(
    units: Sequence[DistillationUnit],
    scheme: QecScheme,
    params: PhysicalQubitParams,
    input_error: float,
    required_error: float,
) -> TFactoryPlan:
    """Find the cheapest distillation chain reaching the required error.

    Depth-first search over chains of 1 to ``MAX_ROUNDS`` rounds, each
    round any unit at any allowed code distance, chaining output error
    into the next round's input; raises :class:`NoFeasiblePipelineError`
    when nothing reaches the target.  Each branch appends one round to
    the chain and shares the prefix's work.  A unit whose error formulas
    ignore the code distance has the same failure and output error at
    every distance, so its round is one branch that keeps every allowed
    distance as an option; any other unit branches once per allowed
    distance.  A chain that reaches the target is scored, never extended:
    another round can only widen the copy and lengthen the run.

    Every formula runs in a row of one :class:`qec._Rows` table, made per
    call, which builds each row and drops what the scheme rejects at
    distance 1.  A branch whose cost formulas do not read
    ``inputErrorRate`` has the same raw qubits and duration in every chain;
    they are memoized per search, with the narrowest of them, the first
    time the branch gets that far, so failure, output and costs are still
    evaluated, and any formula error raised, in the order of a search
    without the memo.
    Likewise a unit that branches per distance but whose failure formula
    reads no distance variable fails alike at every distance: a visit
    evaluates that formula at the unit's first branch only, where an error
    it raises would be met first, and its other branches reuse the value.

    Two bounds drop work that cannot win, so the search stays exact.  A
    round is dropped when even one unit of it is wider than the best cap
    so far.  A chain that has not reached the target needs another round,
    so its last round runs at least ``ceil(min numInputTs / numOutputTs)``
    units and each earlier round at least what it takes to feed that (the
    lookahead width bound); the chain is not extended when that lower
    bound on the cap of any completion is strictly above the best cap, so
    chains with an equal cap still compete on duration.  Neither bound can
    change the winner, but a formula that would raise only inside a cut
    subtree is never evaluated.

    Visiting order: a visit evaluates its branches in unit-list order and
    scores each chain that reaches the target at once; only then does it
    extend the remaining prefixes, in ascending order of their lookahead
    bound, ties by branch index.  The cheapest prefix usually holds the
    winner, so the bounds cut the rest early.
    If a formula raises in the ordered search, the search runs again in
    unit-list order (keeping the cost memo and the row table), which
    returns or raises exactly what that order does.  So a search returns
    the plan, or raises the error, of a unit-list-order search, except
    that an error met only in work the ordered search cuts is skipped,
    as the bounds already skip it.

    Scoring a chain: the narrowest feasible copy is
    ``cap = max_k min_d parallel_k * qubits_k(d)``, and under that cap each
    round independently takes its option with the least
    ``(duration, qubits, distance)``.  This gives the same optimum as
    trying every distance combination.  Chains are ranked by the key
    ``(cap, total duration, rounds, branch indices)``, the duration summed
    left to right over the rounds.  A unit-list search scores chains in
    ascending order of their branch indices, so among chains equal in the
    rest the one first in that order wins, whatever order the chains were
    visited in: the one that comes first when rounds are compared in
    unit-list order, then by ascending distance for units that branch per
    distance.
    """
    if not units:
        raise ConfigError("at least one distillation unit is required")
    if len(units) > MAX_UNITS:
        raise ConfigError(f"at most {MAX_UNITS} distillation units are supported")
    if not 0.0 < input_error < 1.0:
        raise ConfigError(f"tGateErrorRate must be in (0, 1) for T states, got {input_error!r}")
    if not 0.0 < required_error < 1.0:
        raise ConfigError(f"the T-state error target must be in (0, 1), got {required_error!r}")

    rows = _Rows(scheme, params)
    # (unit, distance its errors are evaluated at or None, distance options,
    # whether its costs ignore the input error, and the unit's position if
    # it branches per distance while its failure formula reads no distance)
    branches = []
    for position, unit in enumerate(units):
        distances = unit.allowed_distances(scheme.max_code_distance)
        failure_reads_distance = bool(
            formulas.variables(unit.failure_probability) & _DISTANCE_VARIABLES
        )
        output_reads_distance = formulas.variables(unit.output_error_rate) & _DISTANCE_VARIABLES
        fixed_cost = "inputErrorRate" not in (
            formulas.variables(unit.physical_qubits) | formulas.variables(unit.duration)
        )
        if failure_reads_distance or output_reads_distance:
            shared = None if failure_reads_distance else position
            branches.extend((unit, d, (d,), fixed_cost, shared) for d in distances)
        else:
            branches.append((unit, None, distances, fixed_cost, None))
    # branch index -> its available (raw duration, unit qubits, distance)
    # and the qubits of the narrowest of them
    costs: dict[int, tuple[list[tuple[float, int, int]], int]] = {}
    min_inputs = min(unit.num_input_ts for unit in units)

    # above every chain's key: every cap is a finite int
    best_key: tuple = (math.inf,)
    best_plan: Optional[TFactoryPlan] = None
    # per round: (unit, options as (expected duration, unit qubits, distance),
    # qubits of its narrowest option, branch index)
    chain: list[tuple[DistillationUnit, list[tuple[float, int, int]], int, int]] = []

    def narrowest_cap(parallel: list[int]) -> int:
        return max(m * narrowest for m, (_, _, narrowest, _) in zip(parallel, chain))

    def score(output_error: float) -> None:
        nonlocal best_key, best_plan
        parallel = _parallel_units([unit for unit, _, _, _ in chain])
        cap = narrowest_cap(parallel)
        picks = [
            min(o for o in opts if m * o[1] <= cap) for m, (_, opts, _, _) in zip(parallel, chain)
        ]
        # left to right, as sum() did before CPython 3.12 compensated it
        total_duration = 0.0
        for duration, _, _ in picks:
            total_duration += duration
        # the branch indices break a tie for the chain first in unit-list
        # order, which the ordered search may score later
        key = (cap, total_duration, len(chain), [index for *_, index in chain])
        if key < best_key:
            best_key = key
            best_plan = TFactoryPlan(
                rounds=tuple(
                    FactoryRound(unit.name, d, m)
                    for m, (unit, _, _, _), (_, _, d) in zip(parallel, chain, picks)
                ),
                output_error_rate=output_error,
                duration_per_run=total_duration,
                physical_qubits_per_copy=cap,
                t_states_per_run=chain[-1][0].num_output_ts,
            )

    def visit(error: float) -> None:
        # (lookahead bound, branch index, round, its output error) of each
        # prefix to extend once every branch here has been scored
        later = []
        # unit position -> the failure of a unit whose failure formula reads
        # no distance, from its first branch here: the same at every distance
        failures: dict[int, float] = {}
        for index, (unit, at, distances, fixed_cost, shared) in enumerate(branches):
            env = rows[at]
            if env is None:
                continue
            env["inputErrorRate"] = error
            if shared is None:
                failure = formulas.evaluate(unit.failure_probability, env)
            else:
                failure = failures.get(shared)
                if failure is None:
                    failure = failures[shared] = formulas.evaluate(unit.failure_probability, env)
            if not 0.0 <= failure < 1.0:
                continue
            output = formulas.evaluate(unit.output_error_rate, env)
            if not 0.0 < output < 1.0:
                continue
            memo = costs.get(index)
            if memo is None:
                raw = []
                for d in distances:
                    env = rows[d]
                    if env is None:
                        continue
                    env["inputErrorRate"] = error
                    qubits = formulas.evaluate(unit.physical_qubits, env)
                    duration = formulas.evaluate(unit.duration, env)
                    # an overflowed or NaN cost makes the round unavailable,
                    # as a non-positive one does
                    if 1.0 <= qubits < math.inf and 0.0 < duration < math.inf:
                        raw.append((duration, math.ceil(qubits), d))
                # any completion needs at least one unit per round
                memo = raw, min([q for _, q, _ in raw], default=0)
                if fixed_cost:
                    costs[index] = memo
            raw, narrowest = memo
            if not raw:
                continue
            if narrowest > best_key[0]:
                continue
            options = [(duration / (1.0 - failure), q, d) for duration, q, d in raw]
            step = (unit, options, narrowest, index)
            chain.append(step)
            if output <= required_error:
                score(output)
            elif len(chain) < MAX_ROUNDS:
                # the next round takes at least min_inputs states from this one
                least = -(-min_inputs // unit.num_output_ts)
                bound = narrowest_cap(_parallel_units([u for u, _, _, _ in chain], least))
                if bound <= best_key[0]:
                    if in_order:
                        visit(output)
                    else:
                        later.append((bound, index, step, output))
            chain.pop()
        later.sort()
        for bound, _, step, output in later:
            if bound > best_key[0]:
                break
            chain.append(step)
            visit(output)
            chain.pop()

    in_order = False
    try:
        visit(input_error)
    except Exception:
        # whatever the ordered pass raised, a search in unit-list order
        # raises the error that order meets first or returns its plan
        in_order = True
        best_key, best_plan = (math.inf,), None
        chain.clear()
        visit(input_error)
    if best_plan is None:
        raise NoFeasiblePipelineError(
            f"no distillation chain of <= {MAX_ROUNDS} rounds reaches error "
            f"{required_error:g} from input error {input_error:g}"
        )
    return best_plan


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
        raise ConfigError(f"total T states must be >= 0, got {total_t_states}")
    if not 0.0 < algorithm_runtime < math.inf:
        raise ConfigError(f"runtime must be positive and finite, got {algorithm_runtime!r} ns")
    if total_t_states == 0:
        return _sized(plan, 0, 0), 1.0
    constraints = constraints or TFactoryConstraints()
    duration = plan.duration_per_run
    per_run = plan.t_states_per_run

    if algorithm_runtime // duration == math.inf:
        raise ConfigError(
            f"runtime {algorithm_runtime:g} ns holds more factory runs of {duration:g} ns "
            "than float range"
        )
    runs = int(algorithm_runtime // duration)
    if runs >= 1:
        copies = -(-total_t_states // (runs * per_run))
        max_copies = constraints.max_t_factory_copies
        if max_copies is None or copies <= max_copies:
            return _sized(plan, copies, runs), 1.0

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
    return _sized(plan, copies, needed_runs), slowdown


def _sized(plan: TFactoryPlan, num_copies: int, runs_per_copy: int) -> TFactoryPlan:
    """``plan`` with its fleet filled in."""
    # by position, not Record.__replace__: ~1.0 us against ~2.3 us a copy (timeit, 3.11)
    return TFactoryPlan(
        plan.rounds,
        plan.output_error_rate,
        plan.duration_per_run,
        plan.physical_qubits_per_copy,
        plan.t_states_per_run,
        num_copies,
        runs_per_copy,
    )
