"""Deterministic physical resource estimation for fault-tolerant quantum programs.

The engine converts a logical specification of a quantum algorithm (a
gate-event trace, pre-counted logical estimates, or post-layout
aggregates) into the physical resources required to execute it under a
chosen error correction scheme, hardware profile, and error budget:
physical qubits, runtime, and the reliable-operations-per-second rate.
"""

from .counts import (
    LogicalCounts,
    TraceEvent,
    count_trace,
    parse_trace_lines,
    read_trace,
)
from .errors import (
    AboveThresholdError,
    ArityMismatchError,
    ConfigError,
    DistanceExhaustedError,
    DivisionByZeroError,
    DoubleAllocError,
    EstimationStageError,
    EstimatorError,
    FactoryConstraintInfeasibleError,
    FormulaDomainError,
    FormulaError,
    FormulaSyntaxError,
    InvalidBudgetError,
    InvalidCountsError,
    InvalidPartitionError,
    NoFeasiblePipelineError,
    RuntimeTooShortError,
    TraceError,
    TraceFormatError,
    UnboundVariableError,
    UnknownFunctionError,
    UseAfterReleaseError,
)
from .formulas import (
    DISTILLATION_VARIABLES,
    QEC_SCHEME_VARIABLES,
    FormulaExpr,
    evaluate,
    parse_formula,
    to_source,
)
from .jobs import JobSpec, job_from_mapping, load_job, run_job
from .layout import (
    AlgorithmicLogicalEstimate,
    RotationSynthesisConstants,
    algorithmic_depth,
    estimate_algorithmic,
    layout_qubits,
    t_states_per_rotation,
    total_t_states,
)
from .pipeline import (
    ErrorBudget,
    FrontierPoint,
    FrontierResult,
    PostLayoutInput,
    estimate,
    frontier,
    partition_budget,
)
from .profiles import BUILTIN_PROFILE_NAMES, HardwareProfile, list_profiles, load_profile
from .qec import (
    FLOQUET_CODE,
    SURFACE_CODE,
    InstructionSet,
    LogicalQubitProfile,
    PhysicalQubitParams,
    QecScheme,
    compute_code_distance,
    effective_physical_error_rate,
    get_scheme,
    logical_error_rate,
    logical_qubit_profile,
    required_logical_error_rate,
)
from .report import EstimateReport
from .tfactory import (
    DEFAULT_15_TO_1,
    Applicability,
    DistillationUnit,
    FactoryRound,
    TFactoryConstraints,
    TFactoryPlan,
    required_t_state_error,
    search_pipeline,
    size_fleet,
)

__version__ = "0.1.0"
