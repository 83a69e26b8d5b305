"""Estimate report data model and serialization.

A report always carries the same eight groups, so consumers can rely on
a fixed schema even for degenerate workloads: physical resource
estimates, the resource breakdown, logical qubit parameters, T factory
parameters, pre-layout logical resources, the assumed error budget, the
physical qubit parameters, and the estimation assumptions.  Each key is
the camelCase of a field name (see :class:`~.errors.JsonRecord`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .counts import LogicalCounts
from .errors import JsonRecord
from .qec import LogicalQubitProfile, PhysicalQubitParams
from .tfactory import TFactoryPlan

__all__ = [
    "BudgetPartition",
    "PhysicalResourceEstimates",
    "ResourceEstimatesBreakdown",
    "EstimateReport",
]


@dataclass(frozen=True)
class BudgetPartition(JsonRecord):
    """Total error budget and its three shares.

    The shares always sum back to the total: the logical share is
    computed as the remainder after the distillation and synthesis
    shares are fixed.
    """

    total: float
    logical: float
    t_states: float
    rotations: float


@dataclass(frozen=True)
class PhysicalResourceEstimates(JsonRecord):
    """Headline outputs: runtime (ns), rQOPS, and physical qubits."""

    runtime: float
    rqops: float
    physical_qubits: int


@dataclass(frozen=True)
class ResourceEstimatesBreakdown(JsonRecord):
    logical_qubits_post_layout: int
    algorithmic_depth: int
    num_t_states: int
    num_t_factory_copies: int
    algorithmic_physical_qubits: int
    t_factory_physical_qubits: int
    required_logical_error_rate: float
    required_t_state_error: Optional[float]
    slowdown_applied: float


@dataclass(frozen=True)
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
    assumed_error_budget: BudgetPartition
    physical_qubit_parameters: PhysicalQubitParams
    assumptions: tuple[str, ...]

    def to_json(self) -> str:
        """Serialize deterministically: same report, same bytes."""
        return json.dumps(self.as_mapping(), indent=2, allow_nan=False)
