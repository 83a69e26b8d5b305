"""End-to-end estimation: logical counts to physical machine.

Estimation is a plan plus fleet sizing.  The plan runs every stage that
the slowdown does not change, in a fixed order: partition the error
budget, fix the rotation-synthesis multiplier, lay out the logical
qubits, compute depth and T-state totals, derive the per-cycle logical
error target, select the code distance, profile the logical qubit, and
search for the distillation chain.  Sizing then fits the T factory
fleet to the runtime at one slowdown and totals everything up,
including the rQOPS rate (logical qubits times logical clock speed).
:func:`estimate` plans and sizes once; :func:`frontier` plans once and
sizes at each grid factor.  Identical inputs produce byte-identical
reports.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from . import layout, qec, tfactory
from .counts import LogicalCounts
from .errors import (
    ConfigError,
    EstimationStageError,
    EstimatorError,
    InvalidPartitionError,
    JsonRecord,
)
from .layout import DEFAULT_SYNTHESIS, RotationSynthesisConstants
from .qec import PhysicalQubitParams, QecScheme
from .report import (
    ErrorBudget,
    EstimateReport,
    PhysicalResourceEstimates,
    ResourceEstimatesBreakdown,
)
from .tfactory import EMPTY_PLAN, DistillationUnit, TFactoryConstraints

__all__ = [
    "ErrorBudget",
    "PostLayoutInput",
    "FrontierPoint",
    "FrontierResult",
    "partition_budget",
    "estimate",
    "frontier",
]

_PARTITION_TOLERANCE = 1e-12

ASSUMPTIONS = (
    "Logical error rate per cycle follows the crossing model "
    "crossingPrefactor * (physicalErrorRate / threshold) ^ ((codeDistance + 1) / 2).",
    "The effective physical error rate is the maximum of the Clifford and "
    "readout rates; measurement-based instruction sets also include the idle "
    "rate when provided.",
    "Layout interleaves algorithmic and auxiliary rows: Q algorithmic qubits "
    "become 2 * Q + ceil(sqrt(8 * Q)) + 1 logical qubits.",
    "Each arbitrary rotation is synthesized from T states; its cost is "
    "ceil(a * log2(rotationCount / synthesisBudget) + b) T states.",
    "T factories run concurrently with the algorithm; a factory copy executes "
    "its distillation rounds sequentially, retrying failed rounds, so its "
    "footprint is the widest round and a round with failure probability f "
    "takes duration / (1 - f) on average.",
    "Reported runtime covers logical cycles only; classical processing and "
    "factory warm-up are excluded.",
)


@dataclass(frozen=True)
class PostLayoutInput(JsonRecord):
    """Directly supplied post-layout aggregates.

    Bypasses counting and layout so published aggregate figures can be
    converted to physical estimates; T-state demand defaults to zero
    when unknown.
    """

    logical_qubits_post_layout: int
    algorithmic_depth: int
    total_t_states: int = 0

    def __post_init__(self):
        for (attr, key), least in zip(self._json_fields(), (1, 1, 0)):
            if getattr(self, attr) < least:
                raise ConfigError(f"postLayout {key} must be >= {least}")


def partition_budget(
    budget: ErrorBudget, has_rotations: bool, has_t_states: bool
) -> ErrorBudget:
    """Split the total budget into logical, distillation, and synthesis shares.

    An explicit budget is returned as it is, after checking its sum.  The
    default split is a third each, with the share of any absent feature
    folded into the logical part; the logical share is computed as the
    remainder so the three always sum back to the total.  The result is
    the report's ``assumedErrorBudget``.
    """
    if budget.logical is not None:
        total = budget.logical + budget.t_states + budget.rotations
        if abs(total - budget.total) > _PARTITION_TOLERANCE:
            raise InvalidPartitionError(
                f"explicit parts sum to {total!r}, expected {budget.total!r}"
            )
        return budget
    t_share = budget.total / 3.0 if has_t_states else 0.0
    rot_share = budget.total / 3.0 if has_rotations else 0.0
    logical = budget.total - t_share - rot_share
    return ErrorBudget(budget.total, logical, t_share, rot_share)


@contextmanager
def _stage(name: str):
    """Re-raise component errors tagged with the pipeline stage."""
    try:
        yield
    except EstimatorError as exc:
        raise EstimationStageError(name, exc) from exc


def estimate(
    counts: Optional[LogicalCounts] = None,
    *,
    qubit_params: PhysicalQubitParams,
    qec_scheme: QecScheme,
    error_budget: Union[ErrorBudget, float, dict],
    distillation_units: Optional[Sequence[DistillationUnit]] = None,
    constraints: Optional[TFactoryConstraints] = None,
    rotation_synthesis: RotationSynthesisConstants = DEFAULT_SYNTHESIS,
    post_layout: Optional[PostLayoutInput] = None,
    slowdown: float = 1.0,
) -> EstimateReport:
    """Run the full estimation pipeline and build the report.

    Exactly one of ``counts`` (pre-layout logical counts) or
    ``post_layout`` (already laid-out aggregates) must be given.
    ``slowdown`` >= 1 stretches the program runtime up front, trading
    time for fewer T factory copies.  Component failures propagate as
    :class:`EstimationStageError` tagged with the stage that failed.
    """
    return _plan(counts, qubit_params, qec_scheme, error_budget, distillation_units,
                 constraints, rotation_synthesis, post_layout)(slowdown)


def _plan(counts, qubit_params, qec_scheme, error_budget, distillation_units=None,
          constraints=None, rotation_synthesis=DEFAULT_SYNTHESIS, post_layout=None):
    """Run every stage of :func:`estimate` that the slowdown does not change.

    Returns the per-slowdown step, a function from slowdown to report:
    fleet sizing plus the report totals.
    """
    if (counts is None) == (post_layout is None):
        raise ConfigError("exactly one of counts or post_layout must be provided")
    budget = ErrorBudget.from_value(error_budget)
    units = (tfactory.DEFAULT_15_TO_1,) if distillation_units is None else tuple(distillation_units)

    # post-layout aggregates carry no feature flags; keep the plain
    # three-way split so explicit and default budgets agree
    has_rotations = counts is None or counts.rotation_count > 0
    has_t_states = counts is None or (
        counts.t_count + counts.ccz_count + counts.ccix_count + counts.rotation_count
    ) > 0
    with _stage("budget-partition"):
        partition = partition_budget(budget, has_rotations, has_t_states)
    if counts is not None:
        with _stage("rotation-synthesis"):
            # the synthesis budget is only consulted when rotations exist;
            # the result carries the same three aggregates as PostLayoutInput
            post_layout = layout.estimate_algorithmic(
                counts, partition.rotations, rotation_synthesis
            )
    logical_qubits = post_layout.logical_qubits_post_layout
    depth = post_layout.algorithmic_depth
    total_t = post_layout.total_t_states
    with _stage("logical-error-target"):
        target = qec.required_logical_error_rate(partition.logical, logical_qubits, depth)
    physical_rate = qec.effective_physical_error_rate(qubit_params)
    with _stage("code-distance"):
        distance = qec.compute_code_distance(qec_scheme, physical_rate, target)
    with _stage("logical-qubit-profile"):
        profile = qec.logical_qubit_profile(qec_scheme, qubit_params, distance)
        rqops = logical_qubits * profile.logical_clock_speed
        if rqops == math.inf:
            raise ConfigError(f"rqops of {logical_qubits} logical qubits exceeds float range")

    t_target = None
    plan = EMPTY_PLAN
    if total_t > 0:
        with _stage("t-state-target"):
            t_target = tfactory.required_t_state_error(partition.t_states, total_t)
        with _stage("t-factory-pipeline"):
            plan = tfactory.search_pipeline(
                units, qec_scheme, qubit_params,
                input_error=qubit_params.t_gate_error_rate, required_error=t_target,
            )

    # exact float identities; tests recompute these expressions bit-for-bit
    algorithmic_qubits = logical_qubits * profile.physical_qubits_per_logical_qubit

    def size(slowdown: float) -> EstimateReport:
        if slowdown < 1.0:
            raise ConfigError(f"slowdown must be >= 1, got {slowdown!r}")
        base_runtime = depth * profile.logical_cycle_time * slowdown
        with _stage("t-factory-sizing"):
            fleet, extra_slowdown = tfactory.size_fleet(plan, total_t, base_runtime, constraints)
        slowdown_applied = slowdown * extra_slowdown
        return EstimateReport(
            physical_resource_estimates=PhysicalResourceEstimates(
                runtime=depth * profile.logical_cycle_time * slowdown_applied,
                rqops=rqops,
                physical_qubits=algorithmic_qubits + fleet.factory_physical_qubits,
            ),
            resource_estimates_breakdown=ResourceEstimatesBreakdown(
                logical_qubits_post_layout=logical_qubits,
                algorithmic_depth=depth,
                num_t_states=total_t,
                num_t_factory_copies=fleet.num_copies,
                algorithmic_physical_qubits=algorithmic_qubits,
                t_factory_physical_qubits=fleet.factory_physical_qubits,
                required_logical_error_rate=target,
                required_t_state_error=t_target,
                slowdown_applied=slowdown_applied,
            ),
            logical_qubit_parameters=profile,
            t_factory_parameters=fleet,
            pre_layout_logical_resources=counts,
            assumed_error_budget=partition,
            physical_qubit_parameters=qubit_params,
            assumptions=ASSUMPTIONS,
        )

    return size


@dataclass(frozen=True)
class FrontierPoint:
    slowdown: float
    physical_qubits: int
    runtime: float
    report: EstimateReport

    def as_mapping(self) -> dict:
        return {
            "slowdown": self.slowdown,
            "physicalQubits": self.physical_qubits,
            "runtime": self.runtime,
        }


@dataclass(frozen=True)
class FrontierResult:
    points: tuple[FrontierPoint, ...]
    errors: tuple[tuple[float, EstimatorError], ...]


def frontier(
    counts: Optional[LogicalCounts] = None,
    *,
    slowdown_grid: Sequence[float],
    **kwargs,
) -> FrontierResult:
    """Qubit/time trade-off curve over a grid of slowdown factors.

    Plans once, sizes the fleet at each factor and Pareto-prunes the
    results, so the returned points have strictly decreasing physical
    qubits as runtime grows.  A factor whose sizing fails is skipped and
    reported in ``errors``; a planning failure is reported for every
    factor.
    """
    grid = list(slowdown_grid)
    if not grid:
        raise ConfigError("slowdown grid must not be empty")
    if any(s < 1.0 for s in grid):
        raise ConfigError("slowdown factors must be >= 1")
    if grid != sorted(grid):
        raise ConfigError("slowdown grid must be sorted ascending")

    try:
        size = _plan(counts, **kwargs)
    except EstimatorError as exc:
        return FrontierResult(points=(), errors=tuple((factor, exc) for factor in grid))
    raw: list[FrontierPoint] = []
    errors: list[tuple[float, EstimatorError]] = []
    for factor in grid:
        try:
            report = size(factor)
        except EstimatorError as exc:
            errors.append((factor, exc))
            continue
        totals = report.physical_resource_estimates
        raw.append(FrontierPoint(factor, totals.physical_qubits, totals.runtime, report))

    # Pareto prune: keep a point only if it strictly improves on qubits as
    # runtime increases; duplicates and dominated points drop out.
    pruned: list[FrontierPoint] = []
    for point in sorted(raw, key=lambda p: (p.runtime, p.physical_qubits, p.slowdown)):
        if not pruned or point.physical_qubits < pruned[-1].physical_qubits:
            pruned.append(point)
    return FrontierResult(points=tuple(pruned), errors=tuple(errors))
