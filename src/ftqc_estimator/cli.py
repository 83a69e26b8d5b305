"""Command-line front end.

Subcommands:

* ``estimate`` runs a single job and writes the full report.
* ``sweep`` re-runs a job template over a list of values for one numeric
  field (dotted path, list items by index) and writes a flat CSV table.
* ``frontier`` runs a job across a slowdown grid and writes the
  Pareto-pruned qubit/runtime points.
* ``profiles`` lists the built-in hardware profiles.

Exit codes: 0 success, 2 configuration error (a usage error included),
3 infeasible estimate, 1 internal error.  Failures emit a machine-readable
JSON error object on stderr; only ``--help`` writes text, on stdout.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import jobs, profiles
from .errors import INFEASIBLE_ERRORS, ConfigError, EstimatorError, _shown
from .records import indented_json, read_file, read_number
from .report import EstimateReport

__all__ = ["main", "cmd_estimate", "cmd_sweep", "cmd_frontier", "cmd_profiles"]

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

SWEEP_COLUMNS = (
    "value",
    "physicalQubits",
    "runtime_ns",
    "codeDistance",
    "rqops",
    "numTFactoryCopies",
    "error",
)


def _write_text(path: Optional[str], text: str) -> None:
    """Write ``text`` to stdout, or as UTF-8 (the encoding job files are
    read in) to the file at ``path``."""
    if path is None or path == "-":
        try:
            sys.stdout.write(text)  # encodes all of it before writing any
        except UnicodeEncodeError as exc:
            raise ConfigError(
                f"stdout's encoding {exc.encoding!r} cannot write the output; use --out"
            ) from exc
    else:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write output file {_shown(path)}: {_shown(str(exc))}") from exc


def _failure(exc: EstimatorError) -> tuple[int, dict]:
    """Exit code and description of a failure; a stage error is described by its cause."""
    cause = getattr(exc, "cause", exc)
    description = {"type": type(cause).__name__, "message": str(cause)}
    if cause is not exc:
        description["stage"] = exc.stage
    return (EXIT_INFEASIBLE if isinstance(cause, INFEASIBLE_ERRORS) else EXIT_CONFIG), description


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{prefix}.{key}" if prefix else key, item, rows)
    else:
        rows.append((prefix, json.dumps(value)))


def _report_table(report: EstimateReport) -> str:
    rows: list[tuple[str, str]] = []
    _flatten("", report.as_mapping(), rows)
    width = max(len(key) for key, _ in rows)
    return "\n".join(f"{key.ljust(width)}  {value}" for key, value in rows) + "\n"


def cmd_estimate(job_path: str, out_path: Optional[str], fmt: str = "structured") -> int:
    """Run one job and write the report; returns the process exit code."""
    job = jobs.load_job(job_path)
    report = jobs.run_job(job)
    if fmt == "table":
        _write_text(out_path, _report_table(report))
    else:
        _write_text(out_path, report.to_json() + "\n")
    return EXIT_OK


def _numeric_slot(data: dict, dotted: str) -> tuple:
    """(container, key, whether its value is an int) of the numeric field at
    ``dotted``, keys and list indices joined by dots."""
    node = data
    for part in dotted.split("."):
        if isinstance(node, list) and part in map(str, range(len(node))):
            part = int(part)
        elif not isinstance(node, dict) or part not in node:
            raise ConfigError(f"job has no field at {_shown(repr(dotted))}")
        parent, slot, node = node, part, node[part]
    if not isinstance(node, (int, float)) or isinstance(node, bool):
        raise ConfigError(f"field at {_shown(repr(dotted))} is not numeric")
    return parent, slot, isinstance(node, int)


def cmd_sweep(
    job_template_path: str,
    parameter_name: str,
    values: Sequence[float],
    out_csv_path: Optional[str],
) -> int:
    """Run a job once per value of one numeric field and emit a CSV table."""
    import csv  # only sweep writes CSV: an import on first use keeps it out of startup

    if not values:
        raise ConfigError("sweep requires a non-empty values list")
    path = Path(job_template_path)
    template = read_file(path, "job file")
    base_dir = path.parent

    # the job read from the template keeps no reference to it, so each row
    # overwrites the one swept slot in place
    container, key, whole = _numeric_slot(template, parameter_name)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for value in values:
        # keep integer-valued fields integral so counts stay valid
        container[key] = int(value) if whole and value == int(value) else value
        try:
            report = jobs.run_job(jobs.job_from_mapping(template, base_dir))
        except EstimatorError as exc:
            failure = _failure(exc)[1]
            writer.writerow([value, "", "", "", "", "", f"{failure['type']}: {failure['message']}"])
            continue
        phys = report.physical_resource_estimates
        breakdown = report.resource_estimates_breakdown
        writer.writerow(
            [
                value,
                phys.physical_qubits,
                phys.runtime,
                report.logical_qubit_parameters.code_distance,
                phys.rqops,
                breakdown.num_t_factory_copies,
                "",
            ]
        )
    _write_text(out_csv_path, buffer.getvalue())
    return EXIT_OK


def cmd_frontier(
    job_path: str,
    slowdown_grid: Sequence[float],
    out_path: Optional[str],
    fmt: str = "structured",
) -> int:
    """Run a job across a slowdown grid and write the pruned frontier."""
    job = jobs.load_job(job_path)
    result = jobs.run_frontier(job, slowdown_grid)
    points = [p.as_mapping() for p in result.points]
    errors = [{"slowdown": s, **_failure(e)[1]} for s, e in result.errors]
    if fmt == "table":
        lines = ["slowdown,physicalQubits,runtime_ns"]
        lines += [f"{p['slowdown']},{p['physicalQubits']},{p['runtime']}" for p in points]
        lines += [f"# error at slowdown {e['slowdown']}: {e['message']}" for e in errors]
        _write_text(out_path, "\n".join(lines) + "\n")
    else:
        _write_text(out_path, indented_json({"points": points, "errors": errors}) + "\n")
    return EXIT_OK


def cmd_profiles(fmt: str = "table", out_path: Optional[str] = None) -> int:
    """List the hardware profiles in the active profile directory."""
    listed = profiles.list_profiles()
    if fmt == "structured":
        _write_text(out_path, indented_json(listed) + "\n")
        return EXIT_OK
    columns = (
        "name",
        "instructionSet",
        "tGateTime",
        "oneQubitMeasurementTime",
        "cliffordErrorRate",
        "tGateErrorRate",
        "defaultQecScheme",
    )
    rows = [columns]
    for profile in listed:
        record = {**profile.as_mapping(), **profile.qubit_params.as_mapping()}
        rows.append(tuple(str(record[column]) for column in columns))
    widths = [max(len(row[i]) for row in rows) for i in range(len(columns))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows]
    _write_text(out_path, "\n".join(lines) + "\n")
    return EXIT_OK


def _parse_values(text: str) -> list[float]:
    shown = _shown(repr(text))
    try:
        values = [float(chunk) for chunk in text.split(",") if chunk.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {shown}") from exc
    return [read_number(value, f"each value in {shown}") for value in values]


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are :class:`ConfigError` failures."""

    def error(self, message: str):
        raise ConfigError(message)

    def parse_args(self, args=None, namespace=None):
        """argparse's, echoing only the first five unrecognized arguments."""
        parsed, extra = self.parse_known_args(args, namespace)
        if extra:
            shown = extra[:5] + ["..."] if len(extra) > 5 else extra
            self.error("unrecognized arguments: " + " ".join(shown))
        return parsed


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused: parsing leaves
    it unchanged, and building costs far more than parsing."""
    parser = _Parser(
        prog="ftqc-estimator",
        description="Physical resource estimation for fault-tolerant quantum algorithms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run one job and write the full report")
    est.add_argument("--job", required=True, help="path to the job JSON file")
    est.add_argument("--out", default=None, help="output path (default: stdout)")
    est.add_argument("--format", choices=("structured", "table"), default="structured")

    swp = sub.add_parser("sweep", help="re-run a job over values of one numeric field")
    swp.add_argument("--job", required=True, help="path to the job template JSON file")
    swp.add_argument("--param", required=True, help="dotted field path; list items by index")
    swp.add_argument("--values", required=True, help="comma-separated numeric values")
    swp.add_argument("--out", default=None, help="CSV output path (default: stdout)")

    fro = sub.add_parser("frontier", help="qubit/time trade-off over a slowdown grid")
    fro.add_argument("--job", required=True, help="path to the job JSON file")
    fro.add_argument("--slowdown-grid", required=True, help="comma-separated factors >= 1")
    fro.add_argument("--out", default=None, help="output path (default: stdout)")
    fro.add_argument("--format", choices=("structured", "table"), default="structured")

    pro = sub.add_parser("profiles", help="list built-in hardware profiles")
    pro.add_argument("--format", choices=("structured", "table"), default="table")
    pro.add_argument("--out", default=None, help="output path (default: stdout)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "estimate":
            return cmd_estimate(args.job, args.out, args.format)
        if args.command == "sweep":
            return cmd_sweep(args.job, args.param, _parse_values(args.values), args.out)
        if args.command == "frontier":
            return cmd_frontier(
                args.job, _parse_values(args.slowdown_grid), args.out, args.format
            )
        return cmd_profiles(args.format, args.out)
    except EstimatorError as exc:
        code, description = _failure(exc)
        for arg in sorted(argv, key=len, reverse=True):  # echo each argument cut short
            for text in (arg, repr(arg)[1:-1]):
                description["message"] = description["message"].replace(text, _shown(text))
        sys.stderr.write(json.dumps({"error": description}) + "\n")
        return code
    except Exception as exc:  # internal error: still machine readable
        sys.stderr.write(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n"
        )
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
