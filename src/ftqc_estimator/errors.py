"""Exception hierarchy for the estimation engine.

Every error raised deliberately by this package derives from
:class:`EstimatorError`, so callers can distinguish engine failures from
programming mistakes with a single ``except`` clause.
"""

from __future__ import annotations

import json
import sys
from enum import Enum
from numbers import Real
from typing import Callable, Optional


class EstimatorError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# formula engine


class FormulaError(EstimatorError):
    """Base class for formula parsing and evaluation failures."""


class FormulaSyntaxError(FormulaError):
    """Malformed formula source.

    ``position`` is the 0-based character offset of the offending input;
    ``expected`` describes what the parser was looking for there.
    """

    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"at position {position}: expected {expected}")


class UnknownFunctionError(FormulaError):
    """A function call uses a name outside the recognized function set."""

    def __init__(self, name: str, position: int = 0):
        self.name = name
        self.position = position
        super().__init__(f"unknown function {name!r} at position {position}")


class UnboundVariableError(FormulaError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable {name!r} is not bound in the environment")


class DivisionByZeroError(FormulaError):
    """Division by zero, or zero raised to a negative power."""


class FormulaDomainError(FormulaError):
    """Argument outside a function's or operator's real domain."""


# ---------------------------------------------------------------------------
# trace ingestion and logical counts


class TraceError(EstimatorError):
    """Base class for malformed gate-event traces."""


class TraceFormatError(TraceError):
    """Unparseable trace record or unknown ``op`` value."""


class UseAfterReleaseError(TraceError):
    def __init__(self, qubit_id: int, event_index: int):
        self.qubit_id = qubit_id
        self.event_index = event_index
        super().__init__(
            f"event {event_index} references qubit {qubit_id}, which is not allocated"
        )


class DoubleAllocError(TraceError):
    def __init__(self, qubit_id: int, event_index: int):
        self.qubit_id = qubit_id
        self.event_index = event_index
        super().__init__(
            f"event {event_index} allocates qubit {qubit_id}, which is already live"
        )


class ArityMismatchError(TraceError):
    def __init__(self, event_index: int, detail: str):
        self.event_index = event_index
        super().__init__(f"event {event_index}: {detail}")


class InvalidCountsError(EstimatorError):
    """A logical-counts record violates its invariants."""

    def __init__(self, field: str, detail: str):
        self.field = field
        super().__init__(f"invalid counts field {field!r}: {detail}")


# ---------------------------------------------------------------------------
# layout estimation


class InvalidBudgetError(EstimatorError):
    """Rotation-synthesis budget outside the open interval (0, 1)."""


# ---------------------------------------------------------------------------
# error correction


class AboveThresholdError(EstimatorError):
    """Physical error rate at or above the scheme's correction threshold."""

    def __init__(self, physical_error_rate: float, threshold: float):
        self.physical_error_rate = physical_error_rate
        self.threshold = threshold
        super().__init__(
            f"physical error rate {physical_error_rate:g} is not below the "
            f"error correction threshold {threshold:g}"
        )


class DistanceExhaustedError(EstimatorError):
    """No code distance up to the scheme's maximum meets the target."""

    def __init__(self, max_code_distance: int):
        self.max_code_distance = max_code_distance
        super().__init__(
            f"no odd code distance <= {max_code_distance} reaches the target "
            "logical error rate"
        )


# ---------------------------------------------------------------------------
# T factories


class NoFeasiblePipelineError(EstimatorError):
    """No distillation chain reaches the required T-state error."""


class FactoryConstraintInfeasibleError(EstimatorError):
    """Copy limit cannot be met even at the maximum allowed slowdown."""


class RuntimeTooShortError(EstimatorError):
    """A single factory run does not fit in the (stretched) runtime."""

    def __init__(self, duration_per_run: float, runtime: float):
        self.duration_per_run = duration_per_run
        self.runtime = runtime
        super().__init__(
            f"factory run of {duration_per_run:g} ns does not fit in the "
            f"available runtime of {runtime:g} ns"
        )


# ---------------------------------------------------------------------------
# pipeline and front end


class InvalidPartitionError(EstimatorError):
    """Explicit error-budget parts do not sum to the total."""


class EstimationStageError(EstimatorError):
    """Component failure tagged with the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: EstimatorError):
        self.stage = stage
        self.cause = cause
        super().__init__(f"[{stage}] {cause}")


class ConfigError(EstimatorError):
    """Invalid job specification, profile, or command-line usage."""


# Readers for decoded job, scheme, unit and profile JSON; each malformed
# value ends as a ConfigError.


def read_record(value, what: str, fields: Optional[frozenset] = None, required=frozenset()):
    """``value`` as an object with every ``required`` key and no key outside ``fields``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {value!r}")
    keys = value.keys()
    if not keys >= required:
        raise ConfigError(f"{what} is missing {', '.join(sorted(required - keys))}")
    if fields is not None and not keys <= fields:
        raise ConfigError(f"unknown {what} field(s): {', '.join(sorted(keys - fields))}")
    return value


def read_number(value, what: str, whole: bool = False):
    """``value`` as a finite ``float``, or with ``whole`` as an ``int``.

    Booleans and strings are not numbers; a fraction is not whole, 15.0 is;
    an integer beyond float range is not finite.
    """
    is_number = isinstance(value, Real) and not isinstance(value, bool)
    if not (is_number and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    if not whole:
        return float(value)
    if value != int(value):
        raise ConfigError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def read_string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def read_choice(value, what: str, choices: type[Enum]):
    """``value`` as a member of the string enum ``choices``."""
    try:
        return choices(value)
    except ValueError:
        expected = ", ".join(repr(choice.value) for choice in choices)
        raise ConfigError(f"unknown {what} {value!r}; expected one of {expected}") from None


def read_file(path, what: str, parse: Callable = json.loads):
    """``parse`` applied to the UTF-8 text of the file at ``path`` (a path
    object); a file that cannot be read or decoded is a ConfigError."""
    try:
        return parse(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # int-string limit, or nested too deep
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


#: Errors meaning "the requested machine cannot be built", as opposed to a
#: malformed request; the CLI maps these to their own exit code.
INFEASIBLE_ERRORS = (
    AboveThresholdError,
    DistanceExhaustedError,
    NoFeasiblePipelineError,
    FactoryConstraintInfeasibleError,
    RuntimeTooShortError,
)
