"""Job specifications: loading, validation, and execution.

A job is a JSON document that names exactly one algorithm input (a trace
file, pre-layout logical counts, or post-layout aggregates), the qubit
parameters (a profile name or a full record), the QEC scheme, the error
budget, and optional distillation units, factory constraints, and
rotation-synthesis constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from . import pipeline, profiles
from .counts import LogicalCounts, count_trace, read_trace
from .errors import ConfigError, read_file, read_record, read_string
from .layout import DEFAULT_SYNTHESIS, RotationSynthesisConstants
from .pipeline import ErrorBudget, PostLayoutInput
from .qec import PhysicalQubitParams, QecScheme, get_scheme
from .report import EstimateReport
from .tfactory import DistillationUnit, TFactoryConstraints

__all__ = ["JobSpec", "load_job", "job_from_mapping", "run_job"]

_JOB_REQUIRED = frozenset({"input", "qubitParams", "errorBudget"})
_JOB_FIELDS = _JOB_REQUIRED | {
    "qecScheme",
    "distillationUnits",
    "tFactoryConstraints",
    "rotationSynthesis",
}
_INPUT_FIELDS = frozenset({"tracePath", "logicalCounts", "postLayout"})


@dataclass(frozen=True)
class JobSpec:
    """A validated estimation job, ready to run."""

    trace_path: Optional[Path]
    logical_counts: Optional[LogicalCounts]
    post_layout: Optional[PostLayoutInput]
    qubit_params: PhysicalQubitParams
    qec_scheme: QecScheme
    error_budget: ErrorBudget
    distillation_units: Optional[tuple[DistillationUnit, ...]]
    constraints: Optional[TFactoryConstraints]
    rotation_synthesis: RotationSynthesisConstants


def _parse_input(data, base_dir: Path):
    read_record(data, "input", _INPUT_FIELDS)
    if len(data) != 1:
        raise ConfigError(
            "job input must carry exactly one of tracePath, logicalCounts, "
            f"or postLayout; found {sorted(data) or 'none'}"
        )
    if "tracePath" in data:
        return (base_dir / read_string(data["tracePath"], "tracePath"), None, None)
    if "logicalCounts" in data:
        counts = read_record(data["logicalCounts"], "logicalCounts")
        return (None, LogicalCounts.from_mapping(counts), None)
    return (None, None, PostLayoutInput.from_mapping(data["postLayout"], "postLayout"))


def _parse_qubit_params(value) -> tuple[PhysicalQubitParams, Optional[str]]:
    """Returns the params plus a default scheme name when a profile supplied one."""
    if isinstance(value, str):
        profile = profiles.load_profile(value)
        return profile.qubit_params, profile.default_scheme_name
    if isinstance(value, dict):
        return PhysicalQubitParams.from_mapping(value, "qubitParams"), None
    raise ConfigError("qubitParams must be a profile name or a parameter object")


def _parse_scheme(value, profile_default: Optional[str]) -> QecScheme:
    if value is None:
        if profile_default is None:
            raise ConfigError(
                "qecScheme is required when qubitParams is not a named profile"
            )
        return get_scheme(profile_default)
    if isinstance(value, str):
        return get_scheme(value)
    if isinstance(value, dict):
        return QecScheme.from_mapping(value, "qecScheme")
    raise ConfigError("qecScheme must be a scheme name or a scheme object")


def job_from_mapping(data: dict, base_dir: Union[str, Path] = ".") -> JobSpec:
    """Validate a decoded job document; relative paths resolve against ``base_dir``.

    ``null`` on an optional key means the key is absent, as in every record.
    """
    read_record(data, "job", _JOB_FIELDS, _JOB_REQUIRED)
    trace_path, logical_counts, post_layout = _parse_input(data["input"], Path(base_dir))
    qubit_params, profile_scheme = _parse_qubit_params(data["qubitParams"])
    scheme = _parse_scheme(data.get("qecScheme"), profile_scheme)
    budget = ErrorBudget.from_value(data["errorBudget"])

    units = None
    if data.get("distillationUnits") is not None:
        raw_units = data["distillationUnits"]
        if not isinstance(raw_units, list) or not raw_units:
            raise ConfigError("distillationUnits must be a non-empty list")
        units = tuple(DistillationUnit.from_mapping(u, "distillation unit") for u in raw_units)

    constraints = None
    if data.get("tFactoryConstraints") is not None:
        constraints = TFactoryConstraints.from_mapping(
            data["tFactoryConstraints"], "tFactoryConstraints"
        )

    synthesis = DEFAULT_SYNTHESIS
    if data.get("rotationSynthesis") is not None:
        synthesis = RotationSynthesisConstants.from_mapping(
            data["rotationSynthesis"], "rotationSynthesis"
        )

    return JobSpec(
        trace_path=trace_path,
        logical_counts=logical_counts,
        post_layout=post_layout,
        qubit_params=qubit_params,
        qec_scheme=scheme,
        error_budget=budget,
        distillation_units=units,
        constraints=constraints,
        rotation_synthesis=synthesis,
    )


def load_job(path: Union[str, Path]) -> JobSpec:
    """Read and validate a job file."""
    path = Path(path)
    return job_from_mapping(read_file(path, "job file"), base_dir=path.parent)


def _run(job: JobSpec, entry, **kwargs):
    """Call a pipeline entry point with the job's counts and settings."""
    counts = job.logical_counts
    if job.trace_path is not None:
        counts = count_trace(read_trace(job.trace_path))
    return entry(
        counts,
        qubit_params=job.qubit_params,
        qec_scheme=job.qec_scheme,
        error_budget=job.error_budget,
        distillation_units=job.distillation_units,
        constraints=job.constraints,
        rotation_synthesis=job.rotation_synthesis,
        post_layout=job.post_layout,
        **kwargs,
    )


def run_job(job: JobSpec, slowdown: float = 1.0) -> EstimateReport:
    """Execute one estimation job."""
    return _run(job, pipeline.estimate, slowdown=slowdown)


def run_frontier(job: JobSpec, slowdown_grid) -> pipeline.FrontierResult:
    """Execute one job across a slowdown grid."""
    return _run(job, pipeline.frontier, slowdown_grid=slowdown_grid)
