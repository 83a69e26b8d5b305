"""Exception hierarchy for the estimation engine.

Every error raised deliberately by this package derives from
:class:`EstimatorError`, so callers can distinguish engine failures from
programming mistakes with a single ``except`` clause.  The errors are
grouped by the stage that raises them; :data:`INFEASIBLE_ERRORS` are the
ones meaning that the requested machine cannot be built, and
:func:`_shown` cuts an echoed value short in a message.  Records and their
JSON live in :mod:`.records`.
"""

from __future__ import annotations

import copyreg


class EstimatorError(Exception):
    """Base class for all errors raised by this package.  A pickled or
    copied error is rebuilt from its class, ``args`` and attributes,
    without calling ``__init__``, whose parameters vary by class."""

    def __reduce__(self):
        return copyreg.__newobj__, (self.__class__, *self.args), self.__dict__


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
        super().__init__(f"unknown function {_shown(repr(name))} at position {position}")


class UnboundVariableError(FormulaError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable {_shown(repr(name))} is not bound in the environment")


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
        super().__init__(f"invalid counts field {_shown(repr(field))}: {detail}")


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


class ConfigError(EstimatorError, ValueError):
    """Invalid job specification, profile, command-line usage, or component argument."""


class InvalidPartitionError(ConfigError):
    """Budget parts that do not sum to the total, or a used share outside (0, 1)."""


class EstimationStageError(EstimatorError):
    """Component failure tagged with the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: EstimatorError):
        self.stage = stage
        self.cause = cause
        super().__init__(f"[{stage}] {cause}")


def _shown(text: str) -> str:
    """``text`` cut to 100 characters, so an echoed value stays short."""
    return text if len(text) <= 100 else text[:100] + "..."


#: Errors meaning "the requested machine cannot be built", as opposed to a
#: malformed request; the CLI maps these to their own exit code.
INFEASIBLE_ERRORS = (
    AboveThresholdError,
    DistanceExhaustedError,
    NoFeasiblePipelineError,
    FactoryConstraintInfeasibleError,
    RuntimeTooShortError,
)
