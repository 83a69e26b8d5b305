"""Estimate report data model and serialization.

A report always carries the same eight groups, so consumers can rely on
a fixed schema even for degenerate workloads: physical resource
estimates, the resource breakdown, logical qubit parameters, T factory
parameters, pre-layout logical resources, the assumed error budget, the
physical qubit parameters, and the estimation assumptions.  Each key is
the camelCase of a field name (see :class:`~.records.JsonRecord`).
The assumed error budget is an :class:`ErrorBudget`, the record a job's
``errorBudget`` is read into, so a report's split reads back as a budget.
"""

from __future__ import annotations

from typing import Optional, Union

from .counts import LogicalCounts
from .errors import ConfigError, InvalidPartitionError
from .qec import LogicalQubitProfile, PhysicalQubitParams
from .records import JsonRecord, indented_json, read_number
from .tfactory import TFactoryPlan

__all__ = [
    "ErrorBudget",
    "PhysicalResourceEstimates",
    "ResourceEstimatesBreakdown",
    "EstimateReport",
]


class ErrorBudget(JsonRecord):
    """Total failure-rate budget, optionally with explicit shares.

    Either all three shares (logical, T states, rotations) are given and
    must sum to the total, or none is and the engine splits the total in
    thirds, folding the shares of absent features into the logical part.
    A report's ``assumedErrorBudget`` is the explicit budget that was used.
    """

    total: float
    logical: Optional[float] = None
    t_states: Optional[float] = None
    rotations: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.total < 1.0:
            raise ConfigError(f"error budget total must be in (0, 1), got {self.total!r}")
        given = [p for p in (self.logical, self.t_states, self.rotations) if p is not None]
        if given and len(given) != 3:
            raise InvalidPartitionError(
                "either give all of logical, tStates, and rotations, or none"
            )
        if any(p < 0 for p in given):
            raise InvalidPartitionError("budget parts must be non-negative")

    @classmethod
    def from_value(cls, value: Union[float, "ErrorBudget", dict]) -> "ErrorBudget":
        if isinstance(value, ErrorBudget):
            return value
        if isinstance(value, dict):
            return cls.from_mapping(value, "errorBudget")
        return cls(total=read_number(value, "errorBudget"))


class PhysicalResourceEstimates(JsonRecord):
    """Headline outputs: runtime (ns), rQOPS, and physical qubits."""

    runtime: float
    rqops: float
    physical_qubits: int


class ResourceEstimatesBreakdown(JsonRecord):
    """The logical and physical quantities a report's headline is made of."""

    logical_qubits_post_layout: int
    algorithmic_depth: int
    num_t_states: int
    num_t_factory_copies: int
    algorithmic_physical_qubits: int
    t_factory_physical_qubits: int
    required_logical_error_rate: float
    required_t_state_error: Optional[float]
    slowdown_applied: float


class EstimateReport(JsonRecord):
    """Full estimation result.

    Invariants: ``physicalQubits`` is the sum of the algorithmic and
    factory qubits, ``rqops`` equals logical qubits times logical clock
    speed, and ``runtime`` equals depth times cycle time times the
    applied slowdown; all three hold as exact float identities.  The
    field order is the group order of the schema, and every number is
    finite: :meth:`to_json` writes strict JSON.
    """

    physical_resource_estimates: PhysicalResourceEstimates
    resource_estimates_breakdown: ResourceEstimatesBreakdown
    logical_qubit_parameters: LogicalQubitProfile
    t_factory_parameters: TFactoryPlan
    pre_layout_logical_resources: Optional[LogicalCounts]
    assumed_error_budget: ErrorBudget
    physical_qubit_parameters: PhysicalQubitParams
    assumptions: tuple[str, ...]

    def to_json(self) -> str:
        """Serialize deterministically: same report, same bytes."""
        return indented_json(self)
