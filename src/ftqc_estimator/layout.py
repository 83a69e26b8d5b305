"""Post-layout algorithmic estimates from pre-layout logical counts.

Converts circuit-level counts into the quantities that drive the physical
estimate: the number of logical qubits after 2D nearest-neighbor layout,
the algorithmic depth in logical cycles, and the total demand for T
states including rotation-synthesis costs.

Python integers are arbitrary precision, so the tallies here cannot
silently wrap at any workload scale.  An argument outside a function's
domain raises :class:`ConfigError`, a synthesis budget outside (0, 1)
:class:`InvalidBudgetError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .counts import LogicalCounts
from .errors import ConfigError, InvalidBudgetError, JsonRecord

__all__ = [
    "RotationSynthesisConstants",
    "AlgorithmicLogicalEstimate",
    "layout_qubits",
    "t_states_per_rotation",
    "algorithmic_depth",
    "total_t_states",
    "estimate_algorithmic",
]


@dataclass(frozen=True)
class RotationSynthesisConstants(JsonRecord):
    """Scaling constants of the per-rotation T-cost model.

    The number of T states consumed to synthesize one arbitrary rotation
    at per-rotation accuracy ``budget / rotationCount`` is
    ``ceil(a * log2(rotationCount / budget) + b)``.
    """

    a: float = 0.53
    b: float = 5.3


DEFAULT_SYNTHESIS = RotationSynthesisConstants()


@dataclass(frozen=True)
class AlgorithmicLogicalEstimate:
    """Post-layout logical requirements of an algorithm."""

    logical_qubits_post_layout: int
    algorithmic_depth: int
    total_t_states: int
    t_states_per_rotation: int
    rotation_synthesis_error_budget: float


def layout_qubits(num_algorithmic_qubits: int) -> int:
    """Logical qubits after adding auxiliary rows for 2D routing.

    Algorithmic rows are interleaved with auxiliary rows, which doubles
    the count; a boundary strip adds ``ceil(sqrt(8 * Q)) + 1`` more.
    Zero algorithmic qubits need no layout at all.
    """
    q = num_algorithmic_qubits
    if q < 0:
        raise ConfigError(f"numQubits must be non-negative, got {q}")
    if q == 0:
        return 0
    # ceil(sqrt(n)) via integer arithmetic; exact at any magnitude
    boundary = math.isqrt(8 * q - 1) + 1
    return 2 * q + boundary + 1


def t_states_per_rotation(rotation_count: int, synthesis_budget: float, constants: RotationSynthesisConstants = DEFAULT_SYNTHESIS) -> int:
    """T states consumed per arbitrary rotation gate.

    The synthesis budget is split uniformly across rotations, so the
    per-gate accuracy is ``synthesis_budget / rotation_count``; the cost
    grows with the log of its inverse.  Always at least 1.
    """
    if rotation_count < 1:
        raise ConfigError(f"rotationCount must be >= 1, got {rotation_count}")
    if not 0.0 < synthesis_budget < 1.0:
        raise InvalidBudgetError(
            f"synthesis budget must be in (0, 1), got {synthesis_budget!r}"
        )
    value = constants.a * math.log2(rotation_count / synthesis_budget) + constants.b
    if not math.isfinite(value):
        raise ConfigError(f"rotation synthesis cost {value!r} is not finite")
    return max(math.ceil(value), 1)


def _check_multiplier(counts: LogicalCounts, t_per_rotation: int) -> None:
    if t_per_rotation < 0:
        raise ConfigError(f"t_per_rotation must be >= 0, got {t_per_rotation}")
    if (t_per_rotation == 0) != (counts.rotation_count == 0):
        raise ConfigError(
            "t_per_rotation must be 0 exactly when there are no rotations "
            f"(got {t_per_rotation} with rotationCount {counts.rotation_count})"
        )


def algorithmic_depth(counts: LogicalCounts, t_per_rotation: int) -> int:
    """Logical cycles needed to run the algorithm.

    One cycle per measurement, rotation, and T gate; three per CCZ or
    CCiX; plus ``t_per_rotation`` cycles for every rotation-bearing
    layer.
    """
    _check_multiplier(counts, t_per_rotation)
    return (
        counts.measurement_count
        + counts.rotation_count
        + counts.t_count
        + 3 * (counts.ccz_count + counts.ccix_count)
        + t_per_rotation * counts.rotation_depth
    )


def total_t_states(counts: LogicalCounts, t_per_rotation: int) -> int:
    """Total T states the algorithm consumes.

    One per explicit T gate, four per CCZ or CCiX, and
    ``t_per_rotation`` per arbitrary rotation.
    """
    _check_multiplier(counts, t_per_rotation)
    return (
        counts.t_count
        + 4 * (counts.ccz_count + counts.ccix_count)
        + t_per_rotation * counts.rotation_count
    )


def estimate_algorithmic(counts: LogicalCounts, synthesis_budget: float, constants: RotationSynthesisConstants = DEFAULT_SYNTHESIS) -> AlgorithmicLogicalEstimate:
    """Bundle the post-layout estimates for one set of counts."""
    if counts.rotation_count > 0:
        multiplier = t_states_per_rotation(counts.rotation_count, synthesis_budget, constants)
    else:
        multiplier = 0
    return AlgorithmicLogicalEstimate(
        logical_qubits_post_layout=layout_qubits(counts.num_qubits),
        algorithmic_depth=algorithmic_depth(counts, multiplier),
        total_t_states=total_t_states(counts, multiplier),
        t_states_per_rotation=multiplier,
        rotation_synthesis_error_budget=synthesis_budget,
    )
