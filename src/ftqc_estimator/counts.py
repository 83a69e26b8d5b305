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

Trace files are streamed: :func:`read_trace` returns a reader, an
iterator of events that opens its file when the first event is taken and
reads it in blocks, so memory does not grow with the trace; callers that
need a list call ``list()``.  One decoder turns a file's lines into ops
and qubit ids for the reader, for :func:`parse_trace_lines` and for the
counting loop: records in the two spellings ``json.dumps`` writes are
decoded there without ``json.loads``, to what it would give, and any
other line goes through ``json.loads``.  The decoder maps id texts to
ints through a bounded table that lives for one decode, so an id's text
is checked and converted once, not on every line that names it.
:func:`count_trace` handed a reader from which no event has been taken
counts the decoder's output straight from the file, with no event built,
so the counts and the errors are those of counting the reader's events.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Union

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
    record,
)

__all__ = [
    "TraceEvent",
    "LogicalCounts",
    "EVENT_KINDS",
    "count_trace",
    "parse_trace_lines",
    "read_trace",
]

# op -> (the numbers of ids it takes, the message refusing any other number)
_ARITY = {
    **dict.fromkeys(("alloc", "release"), (range(1, 1 << 63), "{op} takes at least 1 qubit")),
    **dict.fromkeys(("t", "rz", "measure"), (range(1, 2), "{op} takes exactly 1 qubit, got {n}")),
    **dict.fromkeys(("ccz", "ccix"), (range(3, 4), "{op} takes exactly 3 qubits, got {n}")),
    "clifford": (range(1, 3), "clifford takes 1 or 2 qubits, got {n}"),
}
EVENT_KINDS = frozenset(_ARITY)
_THREE_QUBIT = frozenset({"ccz", "ccix"})
_ONE_ID_OPS = EVENT_KINDS - _THREE_QUBIT

#: Characters read from a trace file at a time.
_BLOCK_SIZE = 1 << 15

# Record heads as json.dumps writes them, with default and with compact
# separators, mapped to the op, its id separator and its numbers of ids.  A
# line of a head, ids of at most 18 ASCII digits without sign or leading
# zero, and "]}" decodes to the event json.loads would give; any other line
# goes through json.loads.
_ID = re.compile("0|[1-9][0-9]{0,17}")
_CANONICAL_HEADS = {
    head.format(op=op): (op, sep, _ARITY[op][0])
    for op in EVENT_KINDS
    for head, sep in (('{{"op": "{op}", "q": ', ", "), ('{{"op":"{op}","q":', ","))
}

#: Most id texts one decode keeps in its table of ids.
_ID_TABLE_SIZE = 1 << 13


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


@record
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


def _check_event(op: str, qubits: tuple, index: int) -> None:
    if op not in EVENT_KINDS:
        raise TraceFormatError(f"unknown trace op {_shown(repr(op))} at event {index}")
    if min(qubits, default=0) < 0:
        raise ArityMismatchError(index, f"{op} references a negative qubit id")
    id_counts, message = _ARITY[op]
    if len(qubits) not in id_counts:
        raise ArityMismatchError(index, message.format(op=op, n=len(qubits)))
    if op in _THREE_QUBIT and len(set(qubits)) != 3:
        raise ArityMismatchError(index, f"{op} requires 3 distinct qubits")


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
    it counts what the decoder makes of the file's lines, with no event
    built, to the same result or error, and leaves the reader empty.
    """
    if events.__class__ is _TraceReader and events._events is None:
        events._events = iter(())  # a counted reader reads as empty
        decoded = _decoded(_blocks(events.path), str(events.path))
        return _count(decoded, decoded)
    events = iter(events)
    return _count(_event_items(events), events)


def _event_items(events: Iterator) -> Iterator[tuple]:
    """``(op, ids, checked)`` for each event, as :func:`_decoded` yields them."""
    for op, qubits in events:
        if op in _ONE_ID_OPS and len(qubits) == 1 and type(qubits[0]) is int and qubits[0] >= 0:
            yield op, qubits[0], True
        else:
            yield op, qubits, False


def _count(items: Iterator[tuple], rest: Iterator) -> LogicalCounts:
    """The counting loop over ``(op, ids, checked)`` items, as :func:`_decoded`
    yields them; on a count error the rest of ``rest`` is taken first."""
    live: set[int] = set()
    peak = 0
    tallies = {"t": 0, "rz": 0, "ccz": 0, "ccix": 0, "measure": 0}
    last_layer: dict[int, int] = {}
    # rotation_layers[k] is 1 when layer k holds an rz: a byte per layer
    rotation_layers = bytearray()
    index = -1

    try:
        for op, ids, checked in items:
            index += 1
            if type(ids) is int:
                if op == "alloc":
                    if ids in live:
                        raise DoubleAllocError(ids, index)
                    live.add(ids)
                    peak = max(peak, len(live))
                    continue
                if ids not in live:
                    raise UseAfterReleaseError(ids, index)
                if op == "release":
                    live.remove(ids)
                    continue
                if op == "clifford":
                    continue
                layer = last_layer[ids] = last_layer.get(ids, 0) + 1
            else:
                if not checked:
                    _check_event(op, ids, index)
                if op == "alloc":
                    for q in ids:
                        if q in live:
                            raise DoubleAllocError(q, index)
                        live.add(q)
                    peak = max(peak, len(live))
                    continue
                for q in ids:
                    if q not in live:
                        raise UseAfterReleaseError(q, index)
                if op == "release":
                    live.difference_update(ids)
                    continue
                if op == "clifford":
                    continue
                layer = 0
                for q in ids:
                    if last_layer.get(q, 0) > layer:
                        layer = last_layer[q]
                layer += 1
                for q in ids:
                    last_layer[q] = layer
            tallies[op] += 1
            if op == "rz":
                if layer >= len(rotation_layers):
                    rotation_layers.extend(bytes(layer + 1 - len(rotation_layers)))
                rotation_layers[layer] = 1
    except (UseAfterReleaseError, DoubleAllocError, ArityMismatchError):
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


def _decoded(blocks: Iterable[Iterable[str]], source: str) -> Iterator[tuple]:
    """``(op, ids, checked)`` for each non-blank line of ``blocks``, lists of
    lines; errors name ``source`` and the line's number.

    A line spelled as one of ``_CANONICAL_HEADS`` is decoded here, any other
    by :func:`_decode`.  Ids are looked up in a table from text to int,
    private to this decode and emptied past ``_ID_TABLE_SIZE`` texts; only a
    text not in it is checked against ``_ID``.  ``ids`` is an int for one
    id of an op that takes one, else a tuple; ``checked`` marks ids known to
    fit ``op``.  A :class:`TraceFormatError` is raised after the rest of
    ``blocks`` has been taken, so that a later read or decode error wins.
    """
    table: dict[str, int] = {}
    line_number = 0
    try:
        for lines in blocks:
            for line in lines:
                line_number += 1
                head, _, rest = line.partition("[")
                spelling = _CANONICAL_HEADS.get(head)
                body, tail, end = rest.partition("]}")
                if spelling is not None and tail and not end.strip():
                    op, sep, id_counts = spelling
                    qubit = table.get(body)
                    if qubit is not None and op in _ONE_ID_OPS:
                        yield op, qubit, True
                        continue
                    texts = body.split(sep)
                    qubits = tuple(map(table.get, texts))
                    if None in qubits and all(map(_ID.fullmatch, texts)):
                        qubits = tuple(map(int, texts))
                        table.update(zip(texts, qubits))
                        if len(table) > _ID_TABLE_SIZE:
                            table.clear()
                    if None not in qubits:
                        yield op, qubits, len(qubits) in id_counts and (
                            op not in _THREE_QUBIT or len(set(qubits)) == 3)
                        continue
                line = line.strip()
                if line:
                    yield (*_decode(line, f"{source}:{line_number}"), False)
    except TraceFormatError:
        for _ in blocks:
            pass
        raise


def _as_events(decoded: Iterator[tuple]) -> Iterator[TraceEvent]:
    for op, ids, _ in decoded:
        yield TraceEvent(op, (ids,) if type(ids) is int else ids)


def parse_trace_lines(lines: Iterable[str], source: str = "<trace>") -> Iterator[TraceEvent]:
    """Parse line-delimited JSON trace records, e.g. ``{"op":"ccz","q":[0,1,2]}``.

    Blank lines are skipped; anything else that fails to decode, and any
    unknown ``op`` value, is a hard error, named by ``source`` and its
    line number.  Records spelled as ``json.dumps`` writes them, with
    default or compact separators, are decoded without ``json.loads``, to
    the same events.
    """
    # the lines as one block, so that none is taken after an error
    return _as_events(_decoded((lines,), source))


def _blocks(path: Union[str, Path]) -> Iterator[list[str]]:
    """The lines of the trace file at ``path`` with their line breaks, a
    list per block read, split as ``str.splitlines`` splits the whole text.
    A read or decode error is reported in the whole file."""
    path = Path(path)
    try:
        with path.open(encoding="utf-8", newline="") as stream:
            carry = ""
            # The last piece of a block may go on in the next one (a closing "\r"
            # may be the first half of "\r\n"), so it is carried over.  Reading
            # at least as much as is carried keeps a line longer than a block linear.
            while block := stream.read(max(_BLOCK_SIZE, len(carry))):
                lines = (carry + block).splitlines(keepends=True)
                carry = lines.pop()
                yield lines
            if carry:
                yield [carry]
    except (OSError, UnicodeDecodeError) as exc:
        # a decode error gives its position within one block; reading the
        # whole file again reports it in the file
        read_file(path, "trace file", len)
        raise _unreadable("trace file", path, exc) from exc


class _TraceReader:
    """The events of a trace file, as :func:`read_trace` returns them."""

    __slots__ = ("path", "_events")

    def __init__(self, path: Union[str, Path]):
        self.path = path
        # None until the first event is asked for, when the file is opened
        self._events: Optional[Iterator[TraceEvent]] = None

    def __iter__(self) -> "_TraceReader":
        return self

    def __next__(self) -> TraceEvent:
        if self._events is None:
            self._events = _as_events(_decoded(_blocks(self.path), str(self.path)))
        return next(self._events)


def read_trace(path: Union[str, Path]) -> Iterator[TraceEvent]:
    """Stream the events of a trace file (one JSON event per line).

    Returns a reader, which is its own iterator: the file is opened when
    the first event is taken and read in blocks as the events are taken,
    so memory does not grow with the trace, and read, decode and parse
    errors are raised as the events are taken.  After an error, as after
    its last event, the reader is empty.  Callers that need a list call
    ``list()``.  :func:`count_trace` given a reader from which no event
    has been taken counts the file's lines itself, without building an
    event per line, and leaves the reader empty.
    """
    return _TraceReader(path)
