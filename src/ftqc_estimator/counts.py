"""Pre-layout logical resource counting from gate-event traces.

A trace is a flat sequence of qubit allocation, release, gate, and
measurement events.  Counting produces the circuit width (peak number of
simultaneously live qubits), per-kind gate tallies, and the rotation
depth.

Rotation depth uses ASAP per-qubit dependency layering: every counted
event (``t``, ``rz``, ``ccz``, ``ccix``, ``measure``) lands in layer
``1 + max(previous layer of each of its qubits)``, ``clifford`` events
are transparent, and the depth is the number of distinct layers holding
at least one ``rz``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Union

from .errors import (
    ArityMismatchError,
    DoubleAllocError,
    InvalidCountsError,
    TraceFormatError,
    UseAfterReleaseError,
    read_file,
)

__all__ = [
    "TraceEvent",
    "LogicalCounts",
    "EVENT_KINDS",
    "count_trace",
    "counts_from_estimates",
    "parse_trace_lines",
    "read_trace",
]

EVENT_KINDS = frozenset(
    {"alloc", "release", "t", "rz", "ccz", "ccix", "measure", "clifford"}
)

# Events that occupy a dependency layer; `clifford` is transparent.
_LAYERED = frozenset({"t", "rz", "ccz", "ccix", "measure"})

_SINGLE_QUBIT = frozenset({"t", "rz", "measure"})
_THREE_QUBIT = frozenset({"ccz", "ccix"})


@dataclass(frozen=True)
class TraceEvent:
    """One record of a gate-event trace."""

    op: str
    qubits: tuple[int, ...]

    @classmethod
    def from_mapping(cls, record: Mapping, context: str = "") -> "TraceEvent":
        """Build an event from a decoded ``{"op": ..., "q": [...]}`` record."""
        where = f" ({context})" if context else ""
        if not isinstance(record, Mapping) or "op" not in record or "q" not in record:
            raise TraceFormatError(f"trace record must carry 'op' and 'q' fields{where}")
        op = record["op"]
        if op not in EVENT_KINDS:
            raise TraceFormatError(f"unknown trace op {op!r}{where}")
        qubits = record["q"]
        if not isinstance(qubits, (list, tuple)) or not all(
            isinstance(q, int) and not isinstance(q, bool) for q in qubits
        ):
            raise TraceFormatError(f"'q' must be a list of integers{where}")
        return cls(op, tuple(qubits))


@dataclass(frozen=True)
class LogicalCounts:
    """Pre-layout logical resource counts of a quantum program.

    ``num_qubits`` is the circuit width (peak concurrent allocation);
    the remaining fields tally explicitly invoked operations.  All fields
    are non-negative, ``rotation_depth <= rotation_count``, and the depth
    is zero exactly when there are no rotations.
    """

    num_qubits: int = 0
    t_count: int = 0
    rotation_count: int = 0
    rotation_depth: int = 0
    ccz_count: int = 0
    ccix_count: int = 0
    measurement_count: int = 0

    def __post_init__(self):
        for field, value in self.as_mapping().items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidCountsError(field, f"must be an integer, got {value!r}")
            if value < 0:
                raise InvalidCountsError(field, f"must be non-negative, got {value}")
        if self.rotation_depth > self.rotation_count:
            raise InvalidCountsError(
                "rotationDepth",
                f"{self.rotation_depth} exceeds rotationCount {self.rotation_count}",
            )
        if (self.rotation_depth == 0) != (self.rotation_count == 0):
            raise InvalidCountsError(
                "rotationDepth",
                "must be zero exactly when rotationCount is zero",
            )

    def as_mapping(self) -> dict[str, int]:
        return {
            "numQubits": self.num_qubits,
            "tCount": self.t_count,
            "rotationCount": self.rotation_count,
            "rotationDepth": self.rotation_depth,
            "cczCount": self.ccz_count,
            "ccixCount": self.ccix_count,
            "measurementCount": self.measurement_count,
        }

    @classmethod
    def from_mapping(cls, data: Mapping) -> "LogicalCounts":
        known = {
            "numQubits": "num_qubits",
            "tCount": "t_count",
            "rotationCount": "rotation_count",
            "rotationDepth": "rotation_depth",
            "cczCount": "ccz_count",
            "ccixCount": "ccix_count",
            "measurementCount": "measurement_count",
        }
        for key in data:
            if key not in known:
                raise InvalidCountsError(key, "unknown counts field")
        return cls(**{attr: data[key] for key, attr in known.items() if key in data})


def _check_arity(event: TraceEvent, index: int) -> None:
    n = len(event.qubits)
    if any(q < 0 for q in event.qubits):
        raise ArityMismatchError(index, f"{event.op} references a negative qubit id")
    if event.op in _SINGLE_QUBIT and n != 1:
        raise ArityMismatchError(index, f"{event.op} takes exactly 1 qubit, got {n}")
    if event.op in _THREE_QUBIT:
        if n != 3:
            raise ArityMismatchError(index, f"{event.op} takes exactly 3 qubits, got {n}")
        if len(set(event.qubits)) != 3:
            raise ArityMismatchError(index, f"{event.op} requires 3 distinct qubits")
    if event.op == "clifford" and n not in (1, 2):
        raise ArityMismatchError(index, f"clifford takes 1 or 2 qubits, got {n}")
    if event.op in ("alloc", "release") and n < 1:
        raise ArityMismatchError(index, f"{event.op} takes at least 1 qubit")


def count_trace(events: Iterable[TraceEvent]) -> LogicalCounts:
    """Count a well-formed event stream into pre-layout logical resources.

    Raises :class:`UseAfterReleaseError`, :class:`DoubleAllocError`, or
    :class:`ArityMismatchError` (each carrying the offending event index)
    for ill-formed traces.  Re-allocating a previously released id is
    permitted and continues the same logical wire.
    """
    live: set[int] = set()
    peak = 0
    tallies = {"t": 0, "rz": 0, "ccz": 0, "ccix": 0, "measure": 0}
    last_layer: dict[int, int] = {}
    rotation_layers: set[int] = set()

    for index, event in enumerate(events):
        if event.op not in EVENT_KINDS:
            raise TraceFormatError(f"unknown trace op {event.op!r} at event {index}")
        _check_arity(event, index)
        if event.op == "alloc":
            for q in event.qubits:
                if q in live:
                    raise DoubleAllocError(q, index)
                live.add(q)
            peak = max(peak, len(live))
            continue
        for q in event.qubits:
            if q not in live:
                raise UseAfterReleaseError(q, index)
        if event.op == "release":
            live.difference_update(event.qubits)
            continue
        if event.op in tallies:
            tallies[event.op] += 1
        if event.op in _LAYERED:
            layer = 1 + max((last_layer.get(q, 0) for q in event.qubits), default=0)
            for q in event.qubits:
                last_layer[q] = layer
            if event.op == "rz":
                rotation_layers.add(layer)

    return LogicalCounts(
        num_qubits=peak,
        t_count=tallies["t"],
        rotation_count=tallies["rz"],
        rotation_depth=len(rotation_layers),
        ccz_count=tallies["ccz"],
        ccix_count=tallies["ccix"],
        measurement_count=tallies["measure"],
    )


def counts_from_estimates(direct: Union[LogicalCounts, Mapping]) -> LogicalCounts:
    """Validate and pass through directly supplied logical counts.

    This is the input path for programs whose logical estimates are
    already known; no trace is required.  Raises
    :class:`InvalidCountsError` when the record violates the counts
    invariants.
    """
    if isinstance(direct, LogicalCounts):
        return direct
    return LogicalCounts.from_mapping(direct)


def parse_trace_lines(lines: Iterable[str], source: str = "<trace>") -> Iterator[TraceEvent]:
    """Parse line-delimited JSON trace records, e.g. ``{"op":"ccz","q":[0,1,2]}``.

    Blank lines are skipped; anything else that fails to decode, and any
    unknown ``op`` value, is a hard error.
    """
    for line_number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        context = f"{source}:{line_number}"
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"bad JSON at {context}: {exc.msg}") from exc
        yield TraceEvent.from_mapping(record, context)


def read_trace(path: Union[str, Path]) -> list[TraceEvent]:
    """Read a whole trace file (one JSON event per line)."""
    lines = read_file(Path(path), "trace file", str.splitlines)
    return list(parse_trace_lines(lines, source=str(path)))
