"""Code distance selection and per-logical-qubit physical costs.

A QEC scheme is two numeric parameters (crossing pre-factor ``a`` and
error-correction threshold ``p*``) plus two formulas over the physical
operation times and the code distance: the logical cycle time and the
number of physical qubits per logical qubit.  The logical error rate per
cycle at distance ``d`` follows the crossing model
``a * (p / p*) ^ ((d + 1) / 2)``.

An argument outside a function's domain raises :class:`ConfigError`; a
logical budget share outside (0, 1) raises :class:`InvalidPartitionError`.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import Optional

from . import formulas
from .errors import (
    AboveThresholdError,
    ConfigError,
    DistanceExhaustedError,
    InvalidPartitionError,
    JsonRecord,
    _shown,
    record,
)
from .formulas import FormulaExpr

__all__ = [
    "InstructionSet",
    "PhysicalQubitParams",
    "QecScheme",
    "LogicalQubitProfile",
    "SURFACE_CODE",
    "FLOQUET_CODE",
    "get_scheme",
    "effective_physical_error_rate",
    "required_logical_error_rate",
    "logical_error_rate",
    "compute_code_distance",
    "evaluate_scheme_formulas",
    "logical_qubit_profile",
]


class InstructionSet(str, Enum):
    GATE_BASED = "gateBased"
    MAJORANA = "majorana"


# Operation times each instruction set must provide (all in ns).
_REQUIRED_TIMES = {
    InstructionSet.GATE_BASED: (
        "one_qubit_gate_time",
        "two_qubit_gate_time",
        "one_qubit_measurement_time",
        "t_gate_time",
    ),
    InstructionSet.MAJORANA: (
        "one_qubit_measurement_time",
        "two_qubit_measurement_time",
        "t_gate_time",
    ),
}


@record
class PhysicalQubitParams(JsonRecord):
    """Operation times (ns) and error rates of the physical qubits.

    Gate-based sets are characterized by one- and two-qubit gate, T-gate,
    and single-qubit measurement times; measurement-based (Majorana) sets
    by one- and two-qubit measurement and T-gate times.  Times not in the
    instruction set may be omitted.
    """

    instruction_set: InstructionSet
    one_qubit_gate_time: Optional[float] = None
    two_qubit_gate_time: Optional[float] = None
    one_qubit_measurement_time: Optional[float] = None
    two_qubit_measurement_time: Optional[float] = None
    t_gate_time: Optional[float] = None
    clifford_error_rate: float = 0.0
    readout_error_rate: float = 0.0
    t_gate_error_rate: float = 0.0
    idle_error_rate: Optional[float] = None

    def __post_init__(self):
        for attr, key in _TIME_KEYS.items():
            value = getattr(self, attr)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        for attr in _REQUIRED_TIMES[self.instruction_set]:
            value = getattr(self, attr)
            if value is None or value <= 0:
                raise ConfigError(
                    f"{self.instruction_set.value} qubits require "
                    f"{_TIME_KEYS[attr]} > 0, got {value!r}"
                )
        for attr, key in _RATE_KEYS.items():
            value = getattr(self, attr)
            if value is None:
                continue
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{key} must be in [0, 1), got {value!r}")

    def time_variables(self) -> dict[str, float]:
        """Formula bindings for the operation times that are present."""
        env = {}
        for attr, key in _TIME_KEYS.items():
            value = getattr(self, attr)
            if value is not None and attr != "t_gate_time":
                env[key] = float(value)
        return env

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_times"}


def _times(params: PhysicalQubitParams) -> dict[str, float]:
    """``params.time_variables()``, built on the first call and kept on the
    record as an attribute outside its fields (so outside ``==``, ``hash``,
    ``repr``, its JSON and pickling).  Every caller shares the one dict and
    copies it into a formula environment, never changing it."""
    try:
        return params._times
    except AttributeError:
        times = params.time_variables()
        object.__setattr__(params, "_times", times)
        return times


# job keys of the operation times (ns) and of the error rates, by attribute
_TIME_KEYS = {a: k for a, k in PhysicalQubitParams._json_fields() if a.endswith("_time")}
_RATE_KEYS = {a: k for a, k in PhysicalQubitParams._json_fields() if a.endswith("_rate")}


def effective_physical_error_rate(params: PhysicalQubitParams) -> float:
    """Single physical error rate fed to the crossing model.

    The conservative aggregate: the worst of the Clifford and readout
    rates; measurement-based sets also fold in the idle rate when one is
    provided.
    """
    rate = max(params.clifford_error_rate, params.readout_error_rate)
    if params.instruction_set is InstructionSet.MAJORANA and params.idle_error_rate is not None:
        rate = max(rate, params.idle_error_rate)
    return rate


# Largest ``maxCodeDistance`` a scheme may set.  The factory search's work
# grows linearly with it, so the cap bounds a job's running time.
_DISTANCE_CAP = 101


@record
class QecScheme(JsonRecord):
    """A quantum error correction scheme.

    Both formulas may reference the operation-time variables and
    ``codeDistance``; they must evaluate to positive values for every odd
    distance from 3 to ``max_code_distance``, which is at most 101.  At
    distance 1 (a physical-level distillation round) a non-positive value,
    a domain error or a division by zero only drops that round, while an
    unbound variable fails at every distance.
    """

    name: str
    crossing_prefactor: float
    error_correction_threshold: float
    logical_cycle_time: FormulaExpr
    physical_qubits_per_logical_qubit: FormulaExpr
    max_code_distance: int = 51

    def __post_init__(self):
        if self.crossing_prefactor <= 0:
            raise ConfigError(
                f"crossing prefactor must be positive, got {self.crossing_prefactor!r}"
            )
        if not 0.0 < self.error_correction_threshold < 1.0:
            raise ConfigError(
                "error correction threshold must be in (0, 1), got "
                f"{self.error_correction_threshold!r}"
            )
        if self.max_code_distance < 3 or self.max_code_distance % 2 == 0:
            raise ConfigError(
                f"max code distance must be an odd integer >= 3, got "
                f"{self.max_code_distance!r}"
            )
        if self.max_code_distance > _DISTANCE_CAP:
            raise ConfigError(
                f"maxCodeDistance must be at most {_DISTANCE_CAP}, got {self.max_code_distance!r}"
            )


SURFACE_CODE = QecScheme.from_strings(
    name="surface_code",
    crossing_prefactor=0.03,
    error_correction_threshold=0.01,
    logical_cycle_time="(4 * twoQubitGateTime + 2 * oneQubitMeasurementTime) * codeDistance",
    physical_qubits_per_logical_qubit="2 * codeDistance ^ 2",
)

FLOQUET_CODE = QecScheme.from_strings(
    name="floquet_code",
    crossing_prefactor=0.07,
    error_correction_threshold=0.01,
    logical_cycle_time="3 * codeDistance * oneQubitMeasurementTime",
    physical_qubits_per_logical_qubit="4 * codeDistance ^ 2 + 8 * (codeDistance - 1)",
)

_SCHEMES = {
    "surface_code": SURFACE_CODE,
    "floquet_code": FLOQUET_CODE,
    # the floquet code is also known by its inventors' names
    "hastings_haah": FLOQUET_CODE,
}


def get_scheme(name: str) -> QecScheme:
    """Look up a built-in scheme by name (aliases allowed)."""
    try:
        return _SCHEMES[name]
    except KeyError:
        raise ConfigError(
            f"unknown QEC scheme {_shown(repr(name))}; built-ins: {', '.join(sorted(_SCHEMES))}"
        ) from None


@record
class LogicalQubitProfile(JsonRecord):
    """Per-logical-qubit costs of a scheme at a chosen code distance."""

    code_distance: int
    physical_qubits_per_logical_qubit: int
    logical_cycle_time: float  # ns
    logical_clock_speed: float  # Hz, = 1e9 / cycle time
    logical_error_rate_per_cycle: float


def required_logical_error_rate(
    error_budget_logical: float, logical_qubits: int, depth: int
) -> float:
    """Per-qubit-per-cycle error target from the logical budget share."""
    if logical_qubits < 1 or depth < 1:
        raise ConfigError("nothing to estimate: the counts hold no qubits or no operations")
    if logical_qubits * depth > sys.float_info.max:
        raise ConfigError("qubits x depth must stay within float range")
    if not 0.0 < error_budget_logical < 1.0:
        raise InvalidPartitionError("the logical error budget share must be in (0, 1)")
    return error_budget_logical / (logical_qubits * depth)


def logical_error_rate(scheme: QecScheme, physical_error_rate: float, code_distance: int) -> float:
    """Crossing-model logical error rate per cycle at a given distance."""
    ratio = physical_error_rate / scheme.error_correction_threshold
    return scheme.crossing_prefactor * ratio ** ((code_distance + 1) // 2)


def compute_code_distance(
    scheme: QecScheme, physical_error_rate: float, target_per_cycle_rate: float
) -> int:
    """Smallest odd distance whose logical error rate meets the target.

    The physical rate must be strictly below the scheme threshold,
    otherwise increasing the distance cannot suppress errors
    (:class:`AboveThresholdError`).  Searches odd distances from 3 up to
    the scheme maximum and raises :class:`DistanceExhaustedError` when
    none suffices.
    """
    if physical_error_rate <= 0.0:
        raise ConfigError(f"physical error rate {physical_error_rate!r} must be positive "
                          "(cliffordErrorRate, readoutErrorRate)")
    if physical_error_rate >= scheme.error_correction_threshold:
        raise AboveThresholdError(physical_error_rate, scheme.error_correction_threshold)
    if not 0.0 < target_per_cycle_rate < 1.0:
        raise ConfigError(f"logical error target per cycle {target_per_cycle_rate!r} not in (0, 1)")
    for distance in range(3, scheme.max_code_distance + 1, 2):
        if logical_error_rate(scheme, physical_error_rate, distance) <= target_per_cycle_rate:
            return distance
    raise DistanceExhaustedError(scheme.max_code_distance)


# Variables of a formula row whose value changes with the code distance.
_DISTANCE_VARIABLES = frozenset(
    {"codeDistance", "physicalQubitsPerLogicalQubit", "logicalCycleTime"}
)


def _base_row(params: PhysicalQubitParams) -> dict[str, float]:
    """The formula row that reads no code distance: the operation times
    and ``cliffordErrorRate``."""
    return {**_times(params), "cliffordErrorRate": params.clifford_error_rate}


def _distance_row(
    scheme: QecScheme, params: PhysicalQubitParams, code_distance: int
) -> dict[str, float]:
    """A new formula row at ``code_distance``, the caller's to change: the
    base row, ``codeDistance`` and the scheme's two values.  The scheme's
    formulas are evaluated here alone, seeing the times and the distance."""
    row = {**_times(params), "codeDistance": float(code_distance)}
    cycle_time = formulas.evaluate(scheme.logical_cycle_time, row)
    footprint = formulas.evaluate(scheme.physical_qubits_per_logical_qubit, row)
    if not (0.0 < cycle_time < math.inf and 0.0 < footprint < math.inf):
        raise ConfigError(
            f"scheme {_shown(repr(scheme.name))} formulas must be positive and finite at distance "
            f"{code_distance}: cycle {cycle_time!r}, footprint {footprint!r}"
        )
    row["cliffordErrorRate"] = params.clifford_error_rate
    row["physicalQubitsPerLogicalQubit"] = float(math.ceil(footprint))
    row["logicalCycleTime"] = cycle_time
    return row


def evaluate_scheme_formulas(
    scheme: QecScheme, params: PhysicalQubitParams, code_distance: int
) -> tuple[float, int]:
    """Evaluate (cycle time ns, physical qubits per logical qubit) at a distance.

    Any distance >= 1 is accepted (see :class:`QecScheme` on distance 1);
    both values must come out positive.
    """
    row = _distance_row(scheme, params, code_distance)
    return row["logicalCycleTime"], int(row["physicalQubitsPerLogicalQubit"])


def logical_qubit_profile(
    scheme: QecScheme, params: PhysicalQubitParams, code_distance: int
) -> LogicalQubitProfile:
    """Physical cost profile of one logical qubit at an odd distance.

    The clock speed is the inverse cycle time converted to Hertz; the
    per-cycle logical error rate uses the effective physical error rate
    of ``params``.
    """
    if code_distance % 2 == 0 or not 3 <= code_distance <= scheme.max_code_distance:
        raise ConfigError(
            f"code distance must be odd and within [3, {scheme.max_code_distance}], "
            f"got {code_distance}"
        )
    cycle_time, footprint = evaluate_scheme_formulas(scheme, params, code_distance)
    clock_speed = 1e9 / cycle_time
    if clock_speed == math.inf:
        raise ConfigError(f"logical clock speed 1e9 / {cycle_time!r} ns exceeds float range")
    return LogicalQubitProfile(
        code_distance=code_distance,
        physical_qubits_per_logical_qubit=footprint,
        logical_cycle_time=cycle_time,
        logical_clock_speed=clock_speed,
        logical_error_rate_per_cycle=logical_error_rate(
            scheme, effective_physical_error_rate(params), code_distance
        ),
    )
