"""Job specifications: loading, validation, and execution.

A job is a JSON document that names exactly one algorithm input (a trace
file, pre-layout logical counts, or post-layout aggregates), the qubit
parameters (a profile name or a full record), the QEC scheme, the error
budget, and optional distillation units, factory constraints, and
rotation-synthesis constants.  A :class:`JobSpec`, read or made in code,
holds what its names name, so every job runs as made.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from . import pipeline, profiles
from .counts import LogicalCounts, count_trace, read_trace
from .errors import ConfigError
from .layout import DEFAULT_SYNTHESIS, RotationSynthesisConstants
from .pipeline import ErrorBudget, PostLayoutInput
from .qec import PhysicalQubitParams, QecScheme, get_scheme
from .records import JsonRecord, read_file
from .report import EstimateReport
from .tfactory import DistillationUnit, TFactoryConstraints

__all__ = ["JobSpec", "JobInput", "load_job", "job_from_mapping", "run_job", "run_frontier"]


class JobInput(JsonRecord):
    """Exactly one of a trace file, pre-layout counts, or post-layout aggregates."""

    trace_path: Optional[str] = None
    logical_counts: Optional[LogicalCounts] = None
    post_layout: Optional[PostLayoutInput] = None

    _BARE_KEYS = True

    def __post_init__(self):
        given = sorted(key for attr, key in self._json_fields() if getattr(self, attr) is not None)
        if len(given) != 1:
            raise ConfigError(
                "job input must carry exactly one of tracePath, logicalCounts, "
                f"or postLayout; found {given or 'none'}"
            )


class JobSpec(JsonRecord):
    """An estimation job, holding what it runs: when it is made, a profile
    name becomes that profile's params (and, with no scheme, its default
    scheme), a scheme name the scheme, and a total an :class:`ErrorBudget`;
    ``__replace__`` resolves a new name against the scheme the job holds."""

    input: JobInput
    qubit_params: Union[str, PhysicalQubitParams]  # a profile name, or the params
    error_budget: Union[float, ErrorBudget]  # a total, or the budget
    qec_scheme: Optional[Union[str, QecScheme]] = None  # a scheme name, or the scheme
    distillation_units: Optional[tuple[DistillationUnit, ...]] = None
    t_factory_constraints: Optional[TFactoryConstraints] = None
    rotation_synthesis: RotationSynthesisConstants = DEFAULT_SYNTHESIS

    _BARE_KEYS = True

    def __post_init__(self):
        params, scheme = self.qubit_params, self.qec_scheme
        if isinstance(params, str):  # a named profile supplies the params and the default scheme
            profile = profiles.load_profile(params)
            params = profile.qubit_params
            scheme = profile.default_scheme_name if scheme is None else scheme
        if scheme is None:
            raise ConfigError("qecScheme is required when qubitParams is not a named profile")
        object.__setattr__(self, "qubit_params", params)
        object.__setattr__(self, "qec_scheme", get_scheme(scheme) if isinstance(scheme, str) else scheme)
        object.__setattr__(self, "error_budget", ErrorBudget.from_value(self.error_budget))


def job_from_mapping(data: dict, base_dir: Union[str, Path] = ".") -> JobSpec:
    """The job a decoded job document describes, its names resolved; a
    relative trace path resolves against ``base_dir``.

    ``null`` on an optional key means the key is absent, as in every record.
    """
    job = JobSpec.from_mapping(data, "job")
    path = job.input.trace_path
    if path is not None:  # then the only input
        job = job.__replace__(input=JobInput(trace_path=str(Path(base_dir) / path)))
    return job


def load_job(path: Union[str, Path]) -> JobSpec:
    """Read and validate a job file."""
    path = Path(path)
    return job_from_mapping(read_file(path, "job file"), base_dir=path.parent)


def _run(job: JobSpec, entry, **kwargs):
    """Call a pipeline entry point with the job's counts and settings."""
    counts = job.input.logical_counts
    if job.input.trace_path is not None:
        counts = count_trace(read_trace(job.input.trace_path))
    return entry(
        counts,
        qubit_params=job.qubit_params,
        qec_scheme=job.qec_scheme,
        error_budget=job.error_budget,
        distillation_units=job.distillation_units,
        constraints=job.t_factory_constraints,
        rotation_synthesis=job.rotation_synthesis,
        post_layout=job.input.post_layout,
        **kwargs,
    )


def run_job(job: JobSpec, slowdown: float = 1.0) -> EstimateReport:
    """Execute one estimation job."""
    return _run(job, pipeline.estimate, slowdown=slowdown)


def run_frontier(job: JobSpec, slowdown_grid) -> pipeline.FrontierResult:
    """Execute one job across a slowdown grid."""
    return _run(job, pipeline.frontier, slowdown_grid=slowdown_grid)
