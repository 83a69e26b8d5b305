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

Trace files are streamed: :func:`read_trace` returns a reader, a
generator of events that reads the file in blocks, so memory does not
grow with the trace, and callers that need a list call ``list()``.
Records in the two spellings ``json.dumps`` writes are decoded without
``json.loads``, to the events it would give.  :func:`count_trace` handed
a reader from which no event has been taken counts the file's lines in
one loop: a record in either spelling is decoded there to its op and
ids, with no event built, and any other line goes through the decoder
:func:`parse_trace_lines` uses, so the counts and the errors are those of
counting the reader's events.
"""

from __future__ import annotations

import inspect
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, TextIO, Union

from .errors import (
    ArityMismatchError,
    DoubleAllocError,
    InvalidCountsError,
    JsonRecord,
    TraceFormatError,
    UseAfterReleaseError,
    _shown,
    _unreadable,
    read_file,
    read_record,
)

__all__ = [
    "TraceEvent",
    "LogicalCounts",
    "EVENT_KINDS",
    "count_trace",
    "parse_trace_lines",
    "read_trace",
]

EVENT_KINDS = frozenset(
    {"alloc", "release", "t", "rz", "ccz", "ccix", "measure", "clifford"}
)

_SINGLE_QUBIT = frozenset({"t", "rz", "measure"})
_THREE_QUBIT = frozenset({"ccz", "ccix"})

#: Characters read from a trace file at a time.
_BLOCK_SIZE = 1 << 16

# Record heads as json.dumps writes them, with default and with compact
# separators, mapped to the op and to the grammar of the qubit ids between
# "[" and the closing "]}": ids of at most 18 ASCII digits without sign or
# leading zero, joined by the head's separator, as many as the op takes.
# A line that matches decodes to the event json.loads would give; any
# other goes through json.loads.
_ID = "(?:0|[1-9][0-9]{0,17})"
_MORE_IDS = {"alloc": "*", "release": "*", "clifford": "?", "ccz": "{2}", "ccix": "{2}"}
_CANONICAL_HEADS = {
    head.format(op=op): (op, re.compile(f"{_ID}(?:{sep}{_ID}){_MORE_IDS.get(op, '{0}')}"))
    for op in EVENT_KINDS
    for head, sep in (('{{"op": "{op}", "q": ', ", "), ('{{"op":"{op}","q":', ","))
}


class TraceEvent(NamedTuple):
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
        if not isinstance(op, str):
            raise TraceFormatError(f"trace op must be a string{where}")
        if op not in EVENT_KINDS:
            raise TraceFormatError(f"unknown trace op {_shown(repr(op))}{where}")
        qubits = record["q"]
        if not isinstance(qubits, (list, tuple)) or not all(
            isinstance(q, int) and not isinstance(q, bool) for q in qubits
        ):
            raise TraceFormatError(f"'q' must be a list of integers{where}")
        return cls(op, tuple(qubits))


@dataclass(frozen=True)
class LogicalCounts(JsonRecord):
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
        for attr, key in self._json_fields():
            value = getattr(self, attr)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidCountsError(key, f"must be an integer, got {_shown(repr(value))}")
            if value < 0:
                raise InvalidCountsError(key, f"must be non-negative, got {value}")
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

    @classmethod
    def from_mapping(cls, data: Mapping, what: str = "") -> "LogicalCounts":
        """A key or value of the wrong kind raises :class:`InvalidCountsError`."""
        read_record(data, what or cls.__name__)
        known = {key: attr for attr, key in cls._json_fields()}
        for key in data:
            if key not in known:
                raise InvalidCountsError(key, "unknown counts field")
        return cls(**{attr: data[key] for key, attr in known.items() if key in data})


def _check_arity(op: str, qubits: tuple, index: int) -> None:
    n = len(qubits)
    if min(qubits, default=0) < 0:
        raise ArityMismatchError(index, f"{op} references a negative qubit id")
    if op in _SINGLE_QUBIT and n != 1:
        raise ArityMismatchError(index, f"{op} takes exactly 1 qubit, got {n}")
    if op in _THREE_QUBIT:
        if n != 3:
            raise ArityMismatchError(index, f"{op} takes exactly 3 qubits, got {n}")
        if len(set(qubits)) != 3:
            raise ArityMismatchError(index, f"{op} requires 3 distinct qubits")
    if op == "clifford" and n not in (1, 2):
        raise ArityMismatchError(index, f"clifford takes 1 or 2 qubits, got {n}")
    if op in ("alloc", "release") and n < 1:
        raise ArityMismatchError(index, f"{op} takes at least 1 qubit")


def count_trace(events: Iterable[TraceEvent]) -> LogicalCounts:
    """Count a well-formed event stream into pre-layout logical resources.

    Raises :class:`UseAfterReleaseError`, :class:`DoubleAllocError`, or
    :class:`ArityMismatchError` (each carrying the offending event index)
    for ill-formed traces.  Such an error is raised only after the rest
    of ``events`` has been taken, so that an error in reading or parsing
    a later part of a streamed trace wins, as it would if the whole trace
    had been parsed first.  Re-allocating a previously released id is
    permitted and continues the same logical wire.

    Given a :func:`read_trace` reader from which no event has been taken,
    it counts the file's lines without building their events, with the
    same result or error, and leaves the reader empty.
    """
    # an unstarted reader is read_trace's generator before its first step:
    # no file is open yet, and its frame holds the path it was given
    if getattr(events, "gi_code", None) is read_trace.__code__ and (
        inspect.getgeneratorstate(events) == inspect.GEN_CREATED
    ):
        path = events.gi_frame.f_locals["path"]
        events.close()
        source, path = str(path), Path(path)
        with _trace_lines(path) as lines:
            return _count(lines, source)
    return _count(iter(events))


def _count(items: Iterator, source: Optional[str] = None) -> LogicalCounts:
    """The counting loop, over events, or over the lines of the trace file
    named ``source``.

    A line spelled as one of ``_CANONICAL_HEADS`` is decoded here to its op
    and ids, with no event built; any other goes through :func:`_decode`.
    """
    live: set[int] = set()
    peak = 0
    tallies = {"t": 0, "rz": 0, "ccz": 0, "ccix": 0, "measure": 0}
    last_layer: dict[int, int] = {}
    # rotation_layers[k] is 1 when layer k holds an rz: a byte per layer
    rotation_layers = bytearray()
    index = -1
    line_number = 0
    checked = False  # an event's ids are always checked

    try:
        for item in items:
            # ``one`` marks an item with one non-negative id, ``qubit``, and
            # an op that takes one; any other item keeps its ids in
            # ``qubits``, and ``checked`` marks those known to fit the op
            if source is None:
                index += 1
                op, qubits = item
                if op not in EVENT_KINDS:
                    raise TraceFormatError(f"unknown trace op {_shown(repr(op))} at event {index}")
                one = len(qubits) == 1 and not qubits[0] < 0 and op not in _THREE_QUBIT
                if one:
                    qubit = qubits[0]
            else:
                line_number += 1
                line = item.strip()
                if not line:
                    continue
                index += 1
                one = checked = False
                head, _, ids = line.partition("[")
                spelling = _CANONICAL_HEADS.get(head)
                if spelling is not None and ids.endswith("]}"):
                    op, canonical_ids = spelling
                    ids = ids[:-2]
                    # one id, the common case, is checked without the regex
                    if (ids.isdigit() and ids.isascii() and ids[0] != "0" and len(ids) < 19
                            and op not in _THREE_QUBIT):
                        one, qubit = True, int(ids)
                    elif canonical_ids.fullmatch(ids):
                        # the grammar took as many ids as the op takes
                        qubits = tuple(map(int, ids.split(",")))
                        checked = op not in _THREE_QUBIT or len(set(qubits)) == 3
                    else:
                        op, qubits = _decode(line, f"{source}:{line_number}")
                else:
                    op, qubits = _decode(line, f"{source}:{line_number}")
            if one:
                if op == "alloc":
                    if qubit in live:
                        raise DoubleAllocError(qubit, index)
                    live.add(qubit)
                    peak = max(peak, len(live))
                    continue
                if qubit not in live:
                    raise UseAfterReleaseError(qubit, index)
                if op == "release":
                    live.remove(qubit)
                    continue
                if op == "clifford":
                    continue
                layer = last_layer[qubit] = last_layer.get(qubit, 0) + 1
            else:
                if not checked:
                    _check_arity(op, qubits, index)
                if op == "alloc":
                    for q in qubits:
                        if q in live:
                            raise DoubleAllocError(q, index)
                        live.add(q)
                    peak = max(peak, len(live))
                    continue
                for q in qubits:
                    if q not in live:
                        raise UseAfterReleaseError(q, index)
                if op == "release":
                    live.difference_update(qubits)
                    continue
                if op == "clifford":
                    continue
                layer = 0
                for q in qubits:
                    if last_layer.get(q, 0) > layer:
                        layer = last_layer[q]
                layer += 1
                for q in qubits:
                    last_layer[q] = layer
            tallies[op] += 1
            if op == "rz":
                if layer >= len(rotation_layers):
                    rotation_layers.extend(bytes(layer + 1 - len(rotation_layers)))
                rotation_layers[layer] = 1
    except (UseAfterReleaseError, DoubleAllocError, ArityMismatchError):
        rest = items if source is None else parse_trace_lines(items, source, line_number + 1)
        for _ in rest:
            pass
        raise

    return LogicalCounts(
        num_qubits=peak,
        t_count=tallies["t"],
        rotation_count=tallies["rz"],
        rotation_depth=rotation_layers.count(1),
        ccz_count=tallies["ccz"],
        ccix_count=tallies["ccix"],
        measurement_count=tallies["measure"],
    )


def _decode(line: str, context: str) -> TraceEvent:
    """The event of one stripped, non-blank trace line, by ``json.loads``."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"bad JSON at {context}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # int-string limit, or nested too deep
        raise TraceFormatError(f"bad JSON at {context}: {exc}") from exc
    return TraceEvent.from_mapping(record, context)


def parse_trace_lines(
    lines: Iterable[str], source: str = "<trace>", first_line: int = 1
) -> Iterator[TraceEvent]:
    """Parse line-delimited JSON trace records, e.g. ``{"op":"ccz","q":[0,1,2]}``.

    Blank lines are skipped; anything else that fails to decode, and any
    unknown ``op`` value, is a hard error, named by ``source`` and its
    line number, counted from ``first_line``.  Records spelled as
    ``json.dumps`` writes them, with default or compact separators, are
    decoded without ``json.loads``, to the same events.
    """
    for line_number, line in enumerate(lines, first_line):
        stripped = line.strip()
        if not stripped:
            continue
        head, _, tail = stripped.partition("[")
        spelling = _CANONICAL_HEADS.get(head)
        if spelling is not None and tail.endswith("]}"):
            op, canonical_ids = spelling
            ids = tail[:-2]
            # one id, the common case, is checked without the regex
            if ids.isdigit() and ids.isascii() and ids[0] != "0" and len(ids) < 19:
                yield TraceEvent(op, (int(ids),))
                continue
            if canonical_ids.fullmatch(ids):
                yield TraceEvent(op, tuple(map(int, ids.split(","))))
                continue
        yield _decode(stripped, f"{source}:{line_number}")


def _lines(stream: TextIO) -> Iterator[str]:
    """The lines of a text stream with their line breaks, split as
    ``str.splitlines`` splits the whole text."""
    carry = ""
    # The last piece of a block may go on in the next one (a closing "\r"
    # may be the first half of "\r\n"), so it is carried over.  Reading at
    # least as much as is carried keeps a line longer than a block linear.
    while block := stream.read(max(_BLOCK_SIZE, len(carry))):
        lines = (carry + block).splitlines(keepends=True)
        carry = lines.pop()
        yield from lines
    if carry:
        yield carry


@contextmanager
def _trace_lines(path: Path) -> Iterator[Iterator[str]]:
    """The lines of an open trace file, with its read and decode errors.

    A read or decode error anywhere in the file wins over a parse error:
    on a :class:`TraceFormatError` the rest of the file is read first.
    """
    try:
        with path.open(encoding="utf-8", newline="") as stream:
            try:
                yield _lines(stream)
            except TraceFormatError:
                while stream.read(_BLOCK_SIZE):
                    pass
                raise
    except (OSError, UnicodeDecodeError) as exc:
        # a decode error gives its position within one block; reading the
        # whole file again reports it in the file
        read_file(path, "trace file", len)
        raise _unreadable("trace file", path, exc) from exc


def read_trace(path: Union[str, Path]) -> Iterator[TraceEvent]:
    """Stream the events of a trace file (one JSON event per line).

    Returns a generator, which is its own iterator: the file is opened
    when the first event is taken and read in blocks as the events are
    taken, so memory does not grow with the trace, and read, decode and
    parse errors are raised as the events are taken.  Callers that need
    a list call ``list()``.  :func:`count_trace` given a reader from which
    no event has been taken counts the file's lines itself, without
    building an event per line, and closes the reader.
    """
    source, path = str(path), Path(path)
    with _trace_lines(path) as lines:
        yield from parse_trace_lines(lines, source)
