"""Trace counting: width, tallies, rotation layering, and trace errors."""

import gc
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftqc_estimator import counts
from ftqc_estimator.counts import (
    LogicalCounts,
    TraceEvent,
    count_trace,
    parse_trace_lines,
    read_trace,
)
from ftqc_estimator.errors import (
    ArityMismatchError,
    ConfigError,
    DoubleAllocError,
    InvalidCountsError,
    TraceFormatError,
    UseAfterReleaseError,
    read_file,
)


def ev(op, *qubits):
    return TraceEvent(op, tuple(qubits))


def rotation_depth_oracle(events):
    """Brute-force layer assignment over the counted (non-transparent) events."""
    last = {}
    rz_layers = set()
    for event in events:
        if event.op in ("alloc", "release", "clifford"):
            continue
        layer = 1 + max((last.get(q, 0) for q in event.qubits), default=0)
        for q in event.qubits:
            last[q] = layer
        if event.op == "rz":
            rz_layers.add(layer)
    return len(rz_layers)


class TestCountTrace:
    def test_empty_stream(self):
        assert count_trace([]) == LogicalCounts()

    def test_mixed_trace(self):
        trace = [
            ev("alloc", 0, 1, 2),
            ev("t", 0),
            ev("rz", 0),
            ev("rz", 1),
            ev("ccz", 0, 1, 2),
            ev("measure", 0),
            ev("release", 0, 1, 2),
        ]
        counts = count_trace(trace)
        assert counts.num_qubits == 3
        assert counts.t_count == 1
        assert counts.rotation_count == 2
        assert counts.ccz_count == 1
        assert counts.ccix_count == 0
        assert counts.measurement_count == 1
        # rz[0] depends on t[0] (layer 2) while rz[1] opens layer 1, so two
        # distinct layers carry a rotation; matches the brute-force oracle
        assert counts.rotation_depth == rotation_depth_oracle(trace) == 2

    def test_sequential_rotations_cannot_share_a_layer(self):
        counts = count_trace([ev("alloc", 0), ev("rz", 0), ev("rz", 0), ev("release", 0)])
        assert counts.rotation_count == 2
        assert counts.rotation_depth == 2

    def test_parallel_rotations_share_a_layer(self):
        counts = count_trace([ev("alloc", 0, 1), ev("rz", 0), ev("rz", 1)])
        assert counts.rotation_depth == 1

    def test_clifford_is_transparent_for_layering(self):
        with_clifford = [
            ev("alloc", 0, 1),
            ev("rz", 0),
            ev("clifford", 0, 1),
            ev("rz", 1),
        ]
        assert count_trace(with_clifford).rotation_depth == 1
        assert count_trace(with_clifford).rotation_count == 2

    def test_clifford_not_counted(self):
        counts = count_trace([ev("alloc", 0, 1), ev("clifford", 0), ev("clifford", 0, 1)])
        assert counts == LogicalCounts(num_qubits=2)

    def test_width_is_peak_concurrent_allocation(self):
        counts = count_trace(
            [
                ev("alloc", 0),
                ev("alloc", 1),
                ev("release", 0),
                ev("alloc", 2),
                ev("alloc", 3),
                ev("release", 1, 2, 3),
            ]
        )
        assert counts.num_qubits == 3

    def test_realloc_of_released_id_is_allowed(self):
        counts = count_trace(
            [ev("alloc", 0), ev("t", 0), ev("release", 0), ev("alloc", 0), ev("t", 0)]
        )
        assert counts.num_qubits == 1
        assert counts.t_count == 2

    def test_use_after_release(self):
        with pytest.raises(UseAfterReleaseError) as excinfo:
            count_trace([ev("alloc", 0), ev("release", 0), ev("t", 0)])
        assert excinfo.value.qubit_id == 0
        assert excinfo.value.event_index == 2

    def test_use_of_never_allocated(self):
        with pytest.raises(UseAfterReleaseError):
            count_trace([ev("t", 7)])

    def test_double_alloc(self):
        with pytest.raises(DoubleAllocError) as excinfo:
            count_trace([ev("alloc", 0), ev("alloc", 0)])
        assert excinfo.value.qubit_id == 0

    @pytest.mark.parametrize(
        "event",
        [
            ev("t", 0, 1),
            ev("rz"),
            ev("measure", 0, 1, 2),
            ev("ccz", 0, 1),
            ev("ccz", 0, 1, 1),
            ev("ccix", 0, 0, 1),
            ev("clifford", 0, 1, 2),
            ev("alloc"),
            ev("t", -1),
        ],
    )
    def test_arity_mismatches(self, event):
        prelude = [ev("alloc", 0, 1, 2)]
        with pytest.raises(ArityMismatchError) as excinfo:
            count_trace(prelude + [event])
        assert excinfo.value.event_index == 1

    def test_unknown_op_is_hard_error(self):
        with pytest.raises(TraceFormatError):
            count_trace([TraceEvent("h", (0,))])


class TestCountsFromEstimates:
    """Directly supplied counts, read by ``LogicalCounts.from_mapping``."""

    def test_all_zero(self):
        assert LogicalCounts.from_mapping({}) == LogicalCounts()

    def test_mapping_input(self):
        counts = LogicalCounts.from_mapping({"numQubits": 2, "tCount": 7})
        assert counts == LogicalCounts(num_qubits=2, t_count=7)

    def test_depth_without_rotations_rejected(self):
        with pytest.raises(InvalidCountsError):
            LogicalCounts.from_mapping({"rotationCount": 0, "rotationDepth": 1})

    @pytest.mark.parametrize("value", [[], 5, None, "ab"], ids=repr)
    def test_non_object_rejected(self, value):
        with pytest.raises(ConfigError, match="must be an object"):
            LogicalCounts.from_mapping(value)

    def test_depth_above_count_rejected(self):
        with pytest.raises(InvalidCountsError):
            LogicalCounts(rotation_count=2, rotation_depth=3)

    def test_rotations_without_depth_rejected(self):
        with pytest.raises(InvalidCountsError):
            LogicalCounts(rotation_count=2, rotation_depth=0)

    def test_negative_rejected(self):
        with pytest.raises(InvalidCountsError):
            LogicalCounts(t_count=-1)

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidCountsError):
            LogicalCounts.from_mapping({"tGateCount": 1})


class TestTraceFiles:
    def test_parse_lines(self):
        lines = [
            '{"op":"alloc","q":[0,1,2]}',
            "",
            '{"op":"ccz","q":[0,1,2]}',
            '{"op":"measure","q":[0]}',
        ]
        events = list(parse_trace_lines(lines))
        assert events == [ev("alloc", 0, 1, 2), ev("ccz", 0, 1, 2), ev("measure", 0)]

    def test_unknown_op_rejected(self):
        with pytest.raises(TraceFormatError):
            list(parse_trace_lines(['{"op":"cnot","q":[0,1]}']))

    def test_bad_json_rejected(self):
        with pytest.raises(TraceFormatError):
            list(parse_trace_lines(["{op: alloc}"]))

    def test_missing_fields_rejected(self):
        with pytest.raises(TraceFormatError):
            list(parse_trace_lines(['{"op":"t"}']))

    def test_non_integer_ids_rejected(self):
        with pytest.raises(TraceFormatError):
            list(parse_trace_lines(['{"op":"t","q":[0.5]}']))

    def test_read_trace_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"op":"alloc","q":[0]}\n{"op":"rz","q":[0]}\n')
        counts = count_trace(read_trace(path))
        assert counts == LogicalCounts(num_qubits=1, rotation_count=1, rotation_depth=1)


    def test_read_trace_is_an_iterator(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"op":"alloc","q":[0]}\n{"op":"rz","q":[0]}\n')
        events = read_trace(path)
        assert iter(events) is events
        assert list(events) == [ev("alloc", 0), ev("rz", 0)]


# ---------------------------------------------------------------------------
# the streamed, fast-path reader against the whole-file json.loads reader


def oracle_parse(lines, source="<trace>"):
    """Line-by-line ``json.loads`` parsing, the reference for the fast path.

    The one intended difference from the reader this replaced: an integer
    literal beyond Python's int-string limit made ``json.loads`` raise a
    plain ``ValueError``; it is now a ``TraceFormatError``.
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
        except ValueError as exc:
            raise TraceFormatError(f"bad JSON at {context}: {exc}") from exc
        yield TraceEvent.from_mapping(record, context)


def oracle_read(path):
    """Decode the whole file, then parse every line, then hand the list over."""
    lines = read_file(Path(path), "trace file", str.splitlines)
    return list(oracle_parse(lines, source=str(path)))


def short(value):
    """A readable test id for a long or odd input."""
    text = ascii(value)
    return text if len(text) <= 48 else f"{text[:40]}...{len(text)}"


def outcome(call):
    """The value of ``call()``, or the type and message of what it raised."""
    try:
        return ("value", call())
    except Exception as exc:  # the comparison covers every exception type
        return ("error", type(exc).__name__, str(exc))


ODD_IDS = ["0", "7", "-0", "-1", "01", "00", "+1", "1_0", " 1", "1 ", "\u0661", "\u00b2",
           "1.0", "1e3", "true", "null", '"1"', "[1]", "9" * 18, "9" * 19, "9" * 5000]
ID_LINES = [
    line
    for qubit in ODD_IDS
    for line in (
        f'{{"op": "t", "q": [{qubit}]}}',
        f'{{"op":"t","q":[{qubit}]}}',
        f'{{"op": "ccz", "q": [3, {qubit}, 5]}}',
        f'{{"op":"clifford","q":[{qubit},4]}}',
    )
]
SHAPE_LINES = [
    '{"op": "alloc", "q": [0, 1, 2, 3]}',
    '{"op":"alloc","q":[0,1,2,3]}',
    '{"op":\t"t",\t"q":\t[12]}',
    '{"op":  "t", "q": [12]}',
    '{"op": "t",  "q": [12]}',
    '{"op": "t", "q":  [12]}',
    '{"op": "t", "q": [ 12 ]}',
    '{"op": "t", "q": [12] }',
    '{"op": "ccz", "q": [0,1, 2]}',
    '{"op":"ccz","q":[0, 1,2]}',
    '{"op": "ccz", "q": [0 , 1, 2]}',
    '{"op": "ccz", "q": [0,  1, 2]}',
    '{"op": "ccz", "q": [0, 1, 2,]}',
    '{"op": "ccz", "q": [, 0, 1, 2]}',
    '{"op": "ccz", "q": [0, , 2]}',
    '{"q": [12], "op": "t"}',
    '{"op": "t", "q": [12], "q": [13]}',
    '{"op": "t", "op": "rz", "q": [12]}',
    '{"op": "t", "q": [12], "op": "rz"}',
    '{"op": "\\u0074", "q": [12]}',
    '{"op": "t", "q": [12], "extra": 1}',
    '{"op": "t", "q": [12], "note": "h\u00e9llo \u2603"}',
    '{"op": "t", "q": []}',
    '{"op":"alloc","q":[]}',
    '{"op": "cnot", "q": [0, 1]}',
    '{"op": "T", "q": [0]}',
    '{"op": "t"}',
    '{"op": "t", "q": 12}',
    '{"op": "t", "q": [12]',
    '{"op": "t", "q": [12]}}',
    '{"op": "t", "q": [12]}x',
    '{"op": "t", "q": [[12]]}',
    '{"op": "t", "q": [true]}',
    '[]',
    '"t"',
    '',
    '   ',
    '\t',
    '\ufeff{"op": "t", "q": [12]}',
    '  {"op": "t", "q": [12]}  ',
    '{"op": "t", "q": [12]}\u00a0',
]


@pytest.mark.parametrize("line", ID_LINES + SHAPE_LINES, ids=short)
def test_fast_path_parses_as_json_loads(line):
    expected = outcome(lambda: list(oracle_parse([line])))
    assert outcome(lambda: list(parse_trace_lines([line]))) == expected


@pytest.mark.parametrize("op", sorted(counts.EVENT_KINDS))
def test_fast_path_checks_ids_exactly_when_the_event_check_accepts_them(op):
    distinct = [list(range(n)) for n in range(5)]
    repeated = [[0] * n for n in range(2, 5)] + [[0, 1, 0], [2, 0, 2, 1]]
    for ids in distinct + repeated:
        try:
            counts._check_event(op, tuple(ids), 0)
            accepted = True
        except ArityMismatchError:
            accepted = False
        for separators in ((", ", ": "), (",", ":")):
            line = json.dumps({"op": op, "q": ids}, separators=separators)
            # twice in one decode: the second line finds its id texts in the table
            flags = [checked for *_, checked in counts._decoded(([line, line],), "<trace>")]
            assert flags == [accepted, accepted], line


def test_canonical_spellings_take_the_fast_path(tmp_path, monkeypatch):
    lines = [json.dumps({"op": op, "q": q}, separators=separators)
             for op, q in (("t", [12]), ("ccz", [0, 1, 2]), ("alloc", [0]), ("clifford", [3, 4]))
             for separators in ((", ", ": "), (",", ":"))]
    # the same spellings as a trace that counts without error
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(
        json.dumps({"op": op, "q": q}, separators=separators)
        for separators in ((", ", ": "), (",", ":"))
        for op, q in (("alloc", [0, 1, 2, 3, 4, 12]), ("t", [12]), ("ccz", [0, 1, 2]),
                      ("clifford", [3, 4]), ("rz", [1]), ("release", [0, 1, 2, 3, 4, 12]),
                      ("alloc", [7]), ("measure", [7]), ("release", [7]))
    ))
    expected = count_trace(list(read_trace(path)))
    assert expected.num_qubits == 6 and expected.ccz_count == 2 and expected.rotation_depth == 2
    # the trace releases every id it allocates, so it may run again: each id
    # text is met again, and looked up in the decode's id table
    repeated = tmp_path / "repeated.jsonl"
    repeated.write_text("\n".join([path.read_text()] * 3))
    expected_repeated = count_trace(oracle_read(repeated))
    assert expected_repeated.ccz_count == 3 * expected.ccz_count

    def refuse(text):
        raise AssertionError(f"json.loads called on {text!r}")

    monkeypatch.setattr(counts.json, "loads", refuse)
    assert len(list(parse_trace_lines(lines))) == len(lines)
    assert len(list(parse_trace_lines(lines * 3))) == 3 * len(lines)

    def refuse_event(*args):
        raise AssertionError("an event was built")

    # counting the file takes the same decoder, and builds no event either
    monkeypatch.setattr(counts, "TraceEvent", refuse_event)
    assert count_trace(read_trace(path)) == expected
    assert count_trace(read_trace(repeated)) == expected_repeated


CANONICAL = [
    '{"op": "alloc", "q": [0, 1, 2, 3]}',
    '{"op":"t","q":[0]}',
    '{"op": "rz", "q": [1]}',
    '{"op":"ccz","q":[0,1,2]}',
    '{"op": "clifford", "q": [2, 3]}',
    '{"op": "measure", "q": [0]}',
    '{"op":"release","q":[0,1,2,3]}',
]
BAD_AT_5 = CANONICAL[:4] + ['{"op": "rz", "q": [1}'] + CANONICAL[4:]
TRACE_TEXTS = [
    "\n".join(CANONICAL) + "\n",
    "\n".join(CANONICAL),
    "\r\n".join(CANONICAL) + "\r\n",
    "\r".join(CANONICAL) + "\r",
    "\u2028".join(CANONICAL),
    "\x0b".join(CANONICAL) + "\x85",
    "\x1c\x0c\u2029".join(CANONICAL),
    "\ufeff" + "\n".join(CANONICAL),
    "\n\n  \r\n\t\n".join(CANONICAL) + "\n \n",
    "\r\n".join(BAD_AT_5),
    "\r\r\n\u2028".join(BAD_AT_5),
    "\n".join(CANONICAL[:2] + ['{"op": "t", "q": [0], "note": "\u00e9\u2603\U0001f600"}'] + CANONICAL[2:]),
    "",
    "\n\r\n",
]


@pytest.mark.parametrize("block", [1, 2, 3, 5, 1 << 16])
@pytest.mark.parametrize("text", TRACE_TEXTS, ids=short)
def test_streamed_file_reads_as_whole_file(tmp_path, monkeypatch, text, block):
    # tiny blocks put records, "\r\n" pairs and multi-byte characters
    # across block edges
    monkeypatch.setattr(counts, "_BLOCK_SIZE", block)
    path = tmp_path / "trace.jsonl"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(lambda: list(read_trace(path))) == outcome(lambda: oracle_read(path))


# more than the 8 KiB a text stream decodes at a time, so that a bad byte
# after it is met only after the lines before it have been parsed
FILLER = b'{"op":"alloc","q":[1]}\n{"op":"release","q":[1]}\n' * 200


@pytest.mark.parametrize("block", [4, 1 << 16])
@pytest.mark.parametrize(
    "data",
    [
        # a count error before a parse error
        b'{"op":"alloc","q":[0]}\n{"op":"alloc","q":[0]}\n' + FILLER + b'{"op": bad}\n',
        # a count error before an undecodable byte
        b'{"op":"t","q":[0]}\n' + FILLER + b'\xff\n',
        # a parse error before an undecodable byte
        b'{"op": bad}\n' + FILLER + b'{"op": "t", "q": [0]}\xe9\n',
        # an undecodable byte alone: its position is counted from the file's start
        FILLER + FILLER + b'\xe9\n',
        # count errors alone
        b'{"op":"alloc","q":[0]}\n{"op":"t","q":[1]}\n{"op":"t","q":[0]}\n',
        b'{"op":"alloc","q":[0,1]}\n{"op":"ccz","q":[0,1,1]}\n' + FILLER,
    ],
    ids=short,
)
def test_later_read_and_parse_errors_still_win(tmp_path, monkeypatch, data, block):
    monkeypatch.setattr(counts, "_BLOCK_SIZE", block)
    path = tmp_path / "trace.jsonl"
    path.write_bytes(data)
    expected = outcome(lambda: count_trace(oracle_read(path)))
    assert expected[0] == "error"
    assert outcome(lambda: count_trace(read_trace(path))) == expected


def test_memory_does_not_grow_with_trace_length(tmp_path):
    def peak(length):
        rng = random.Random(length)
        path = tmp_path / f"trace-{length}.jsonl"
        width = 64
        lines = [json.dumps({"op": "alloc", "q": list(range(width))})]
        while len(lines) < length:
            op = rng.choice(("t", "rz", "measure", "clifford", "ccz"))
            arity = 3 if op == "ccz" else 1
            lines.append(json.dumps({"op": op, "q": rng.sample(range(width), arity)}))
        path.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            count_trace(read_trace(path))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(100_000) < 2 * peak(10_000)


# ---------------------------------------------------------------------------
# randomized properties


def random_trace(rng: random.Random, max_events: int = 50):
    """Random well-formed trace over a small qubit pool."""
    events = []
    live = set()
    next_id = 0
    for _ in range(rng.randint(0, max_events)):
        roll = rng.random()
        if roll < 0.2 or len(live) < 3:
            fresh = [next_id + i for i in range(rng.randint(1, 3))]
            next_id += len(fresh)
            live.update(fresh)
            events.append(ev("alloc", *fresh))
        elif roll < 0.3 and len(live) > 3:
            victim = rng.choice(sorted(live))
            live.discard(victim)
            events.append(ev("release", victim))
        else:
            op = rng.choice(("t", "rz", "rz", "measure", "ccz", "ccix", "clifford"))
            if op in ("ccz", "ccix"):
                qubits = rng.sample(sorted(live), 3)
            elif op == "clifford":
                qubits = rng.sample(sorted(live), rng.randint(1, 2))
            else:
                qubits = [rng.choice(sorted(live))]
            events.append(ev(op, *qubits))
    return events


def test_rotation_depth_matches_oracle_on_random_traces():
    rng = random.Random(777)
    for _ in range(300):
        trace = random_trace(rng)
        assert count_trace(trace).rotation_depth == rotation_depth_oracle(trace)


def test_width_property_interleaved_alloc():
    rng = random.Random(31337)
    for _ in range(100):
        trace = random_trace(rng, max_events=20)
        counts = count_trace(trace)
        live_now = set()
        for event in trace:
            if event.op == "alloc":
                live_now.update(event.qubits)
            elif event.op == "release":
                live_now.difference_update(event.qubits)
        k = len(live_now)
        extended = trace + [ev("alloc", 10_000), ev("release", 10_000)]
        assert count_trace(extended).num_qubits >= k + 1
        assert count_trace(extended).num_qubits >= counts.num_qubits


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_disjoint_permutation_invariance(seed, data):
    rng = random.Random(seed)
    left = random_trace(rng, max_events=15)
    right = [ev(e.op, *(q + 1000 for q in e.qubits)) for e in random_trace(rng, 15)]
    # interleave the two disjoint traces in a data-driven order
    order = data.draw(st.permutations(["L"] * len(left) + ["R"] * len(right)))
    merged = []
    li = ri = 0
    for tag in order:
        if tag == "L":
            merged.append(left[li])
            li += 1
        else:
            merged.append(right[ri])
            ri += 1
    separate = count_trace(left + right)
    interleaved = count_trace(merged)
    assert interleaved.t_count == separate.t_count
    assert interleaved.rotation_count == separate.rotation_count
    assert interleaved.ccz_count == separate.ccz_count
    assert interleaved.ccix_count == separate.ccix_count
    assert interleaved.measurement_count == separate.measurement_count
    assert interleaved.rotation_depth == separate.rotation_depth


# ---------------------------------------------------------------------------
# counting a reader straight from its file's lines


def spelled(rng, op, qubits):
    """One record of ``op`` on ``qubits`` in a spelling drawn from ``rng``:
    either canonical spelling, a non-canonical one, or padded with blanks."""
    line = json.dumps({"op": op, "q": qubits}, separators=rng.choice(((", ", ": "), (",", ":"))))
    roll = rng.random()
    if roll < 0.1:
        return line.replace(":", " :", 1)
    if roll < 0.2:
        return rng.choice((" ", "\t", "  ")) + line + rng.choice(("", " ", "\t"))
    return line


FAULTS = {
    "bad json": lambda rng: '{"op": "t", "q": [1}',
    "zero-led id": lambda rng: rng.choice(('{"op": "t", "q": [01]}', '{"op":"ccz","q":[0,007,1]}')),
    "long id": lambda rng: '{"op":"t","q":[%s]}' % ("9" * rng.choice((19, 5000))),
    "unallocated": lambda rng: '{"op": "rz", "q": [999]}',
    "double alloc": lambda rng: '{"op":"alloc","q":[0]}',
    "repeated ccz id": lambda rng: '{"op": "ccz", "q": [0, 1, 0]}',
    "ccz on one id": lambda rng: '{"op":"ccz","q":[3]}',
    "clifford on three ids": lambda rng: '{"op":"clifford","q":[0,1,2]}',
    "t on two ids": lambda rng: '{"op": "t", "q": [0, 1]}',
}


def write_random_trace(path, seed, faults, undecodable):
    """A random trace file from ``seed``, with ``faults`` (names in FAULTS)
    put in at random lines and, if ``undecodable``, one byte that is not
    UTF-8.  Lines end in any of four breaks, and some lines are blank."""
    rng = random.Random(seed)
    lines = [spelled(rng, e.op, list(e.qubits)) for e in random_trace(rng, max_events=40)]
    for fault in faults:
        lines.insert(rng.randint(0, len(lines)), FAULTS[fault](rng))
    for _ in range(rng.randint(0, 4)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(("", "  ", "\t")))
    data = b"".join(
        line.encode("utf-8") + rng.choice(("\n", "\r\n", "\r", "\u2028")).encode("utf-8")
        for line in lines
    )
    if undecodable:
        at = rng.randint(0, len(data))
        data = data[:at] + b"\xff" + data[at:]
    path.write_bytes(data)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    faults=st.lists(st.sampled_from(sorted(FAULTS)), max_size=3).filter(
        lambda names: names.count("bad json") <= 1
    ),
    undecodable=st.booleans(),
)
def test_counting_a_reader_counts_as_the_whole_file_oracle(tmp_path_factory, seed, faults, undecodable):
    path = tmp_path_factory.getbasetemp() / "differential.jsonl"
    write_random_trace(path, seed, faults, undecodable)
    expected = outcome(lambda: count_trace(oracle_read(path)))
    for block in (1, 7, 1 << 16):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(counts, "_BLOCK_SIZE", block)
            assert outcome(lambda: count_trace(read_trace(path))) == expected
            # the event path, which a started reader takes, agrees too
            assert outcome(lambda: count_trace(e for e in read_trace(path))) == expected


READER_TRACE = [
    '{"op": "alloc", "q": [9]}',
    '{"op":"alloc","q":[0,1,2]}',
    '{"op": "t", "q": [0]}',
    '{"op": "rz", "q": [1]}',
    '{"op":"ccz","q":[0,1,2]}',
    '{"op": "release", "q": [0]}',
]


class TestReaderStates:
    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(READER_TRACE) + "\n")
        return path

    def test_a_started_reader_counts_the_remaining_events(self, path):
        reader = read_trace(path)
        assert next(reader) == ev("alloc", 9)
        rest = count_trace(reader)
        assert rest == count_trace(list(read_trace(path))[1:])
        assert rest.num_qubits == 3 and count_trace(read_trace(path)).num_qubits == 4
        assert list(reader) == []

    def test_a_counted_reader_reads_as_empty(self, path):
        reader = read_trace(path)
        assert count_trace(reader) == LogicalCounts(
            num_qubits=4, t_count=1, rotation_count=1, rotation_depth=1, ccz_count=1
        )
        assert list(reader) == []
        assert count_trace(reader) == LogicalCounts()

    def test_a_reader_whose_count_failed_reads_as_empty(self, path):
        path.write_text('{"op":"t","q":[0]}\n')
        reader = read_trace(path)
        with pytest.raises(UseAfterReleaseError):
            count_trace(reader)
        assert list(reader) == []

    @pytest.mark.parametrize(
        "data, error",
        [('{"op": bad}\n{"op":"alloc","q":[0]}\n', TraceFormatError), (None, ConfigError)],
        ids=["bad json on line 1", "missing file"],
    )
    def test_a_reader_whose_first_step_failed_reads_as_empty(self, path, data, error):
        if data is None:
            path.unlink()
        else:
            path.write_text(data)
        reader = read_trace(path)
        with pytest.raises(error):
            next(reader)
        assert list(reader) == []
        assert count_trace(reader) == LogicalCounts()

    def test_an_iterator_of_an_unstarted_reader_is_counted_from_lines(self, path, monkeypatch):
        expected = count_trace(list(read_trace(path)))

        def refuse(*args):
            raise AssertionError("an event was built")

        monkeypatch.setattr(counts, "TraceEvent", refuse)
        reader = read_trace(path)
        assert count_trace(iter(reader)) == expected
        assert list(reader) == []

    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.parametrize(
        "data, error",
        [
            ('{"op":"alloc","q":[0]}\n{"op":"t","q":[0]}\n', None),
            ('{"op":"t","q":[0]}\n{"op":"t","q":[1]}\n', UseAfterReleaseError),
            ('{"op":"alloc","q":[0]}\n{"op": bad}\n', TraceFormatError),
            ('{"op":"alloc","q":[0]}\n{"op":"t","q":[0]}\n\udcff\n', ConfigError),
        ],
        ids=["counted", "count error", "parse error", "undecodable"],
    )
    def test_the_file_is_closed_after_a_count(self, tmp_path, monkeypatch, data, error):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(data.encode("utf-8", "surrogateescape"))
        opened = []
        real_open = Path.open

        def recording_open(self, *args, **kwargs):
            opened.append(real_open(self, *args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(Path, "open", recording_open)
        monkeypatch.setattr(counts, "_BLOCK_SIZE", 4)
        if error is None:
            count_trace(read_trace(path))
        else:
            with pytest.raises(error):
                count_trace(read_trace(path))
        assert opened and all(stream.closed for stream in opened)
        gc.collect()


NOT_EVENTS = [
    (['{"op":"alloc","q":[0]}', '{"op":"t","q":[0]}'],
     ("error", "ValueError", "too many values to unpack (expected 2)")),
    (["ab"], ("error", "TraceFormatError", "unknown trace op 'a' at event 0")),
    (["t0"], ("error", "TypeError", "'<' not supported between instances of 'str' and 'int'")),
    ([("alloc", (0,), "x")], ("error", "ValueError", "too many values to unpack (expected 2)")),
    ([(5, (0,))], ("error", "TraceFormatError", "unknown trace op 5 at event 0")),
    ([(None, ())], ("error", "TraceFormatError", "unknown trace op None at event 0")),
    ([(["t"], (0,))], ("error", "TypeError", "unhashable type: 'list'")),
]


@pytest.mark.parametrize("items, expected", NOT_EVENTS, ids=short)
def test_items_that_are_not_events_fail_as_before(items, expected):
    # a string handed to count_trace is never parsed as a trace line
    assert outcome(lambda: count_trace(items)) == expected
    assert outcome(lambda: count_trace(iter(items))) == expected


def test_plain_pairs_count_as_events():
    pairs = [("alloc", (0, 1, 2)), ("t", [0]), ("rz", (1,)), ("ccz", [0, 1, 2]), ("clifford", (0, 1))]
    assert count_trace(pairs) == count_trace([ev(op, *qubits) for op, qubits in pairs])
    with pytest.raises(ArityMismatchError, match="event 1: t takes exactly 1 qubit, got 2"):
        count_trace([("alloc", (0, 1)), ("t", (0, 1))])


def test_a_reader_is_counted_without_building_events(tmp_path, monkeypatch):
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(READER_TRACE) + "\n")
    expected = count_trace(list(read_trace(path)))

    def refuse(*args):
        raise AssertionError("an event was built")

    monkeypatch.setattr(counts, "TraceEvent", refuse)
    assert count_trace(read_trace(path)) == expected


# ---------------------------------------------------------------------------
# the id table of one decode: an id text met again decodes as it did first

TABLE_IDS = ["0", "1", "2", "3", "12", "9" * 18]
TABLE_SPELLINGS = ('{{"op": "{op}", "q": [{ids}]}}', ", "), ('{{"op":"{op}","q":[{ids}]}}', ",")


def fitting_record(draw, ids):
    op = draw(st.sampled_from(("t", "rz", "measure", "clifford", "ccz", "ccix")))
    arity = 3 if op in ("ccz", "ccix") else draw(st.sampled_from((1, 2))) if op == "clifford" else 1
    return op, draw(st.lists(ids, min_size=arity, max_size=arity, unique=True))


def misfit_record(draw, ids):
    shape = draw(st.sampled_from(("any", "three-qubit", "three-qubit on one id", "clifford", "t")))
    if shape == "any":
        return draw(st.sampled_from(sorted(counts.EVENT_KINDS))), draw(st.lists(ids, min_size=1, max_size=4))
    if shape == "three-qubit":  # on a repeated id
        a, b = draw(ids), draw(ids)
        return draw(st.sampled_from(("ccz", "ccix"))), draw(st.permutations([a, b, a]))
    if shape == "three-qubit on one id":
        return draw(st.sampled_from(("ccz", "ccix"))), [draw(ids)]
    # one id too many for the op
    return shape, [draw(ids) for _ in range(3 if shape == "clifford" else 2)]


@st.composite
def table_traces(draw):
    """A trace text over a few id texts, so that ids repeat, in both
    spellings, with blank and padded lines and "\r\n" breaks.  Its records
    all fit their ops, or one of them does not, or some ids are from
    ``ODD_IDS``."""
    kind = draw(st.sampled_from(("fit", "misfit", "odd ids")))
    alphabet = TABLE_IDS
    if kind == "odd ids":
        alphabet = alphabet + draw(st.lists(st.sampled_from(ODD_IDS), min_size=1, max_size=2))
    ids = st.sampled_from(alphabet)
    records = [("alloc", TABLE_IDS)]
    records += [fitting_record(draw, ids) for _ in range(draw(st.integers(0, 30)))]
    if kind == "misfit":
        records.insert(draw(st.integers(1, len(records))), misfit_record(draw, ids))
    lines = []
    for op, qubits in records:
        spelling, sep = draw(st.sampled_from(TABLE_SPELLINGS))
        line = spelling.format(op=op, ids=sep.join(qubits))
        lines.append(draw(st.sampled_from(("", " ", "\t"))) + line + draw(st.sampled_from(("", " "))))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(("", "  ", "\t"))))
    return "".join(line + draw(st.sampled_from(("\n", "\r\n"))) for line in lines)


@settings(max_examples=150, deadline=None)
@given(text=table_traces())
def test_id_texts_met_again_decode_as_the_first_time(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "table.jsonl"
    path.write_bytes(text.encode("utf-8"))
    expected_count = outcome(lambda: count_trace(oracle_read(path)))
    expected_events = outcome(lambda: oracle_read(path))
    for block in (1, 5, 1 << 16):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(counts, "_BLOCK_SIZE", block)
            assert outcome(lambda: count_trace(read_trace(path))) == expected_count
            assert outcome(lambda: list(read_trace(path))) == expected_events


@pytest.mark.parametrize("bound", [0, 1, 3, 64])
def test_a_bounded_id_table_counts_as_the_oracle(tmp_path, monkeypatch, bound):
    monkeypatch.setattr(counts, "_ID_TABLE_SIZE", bound)
    rng = random.Random(bound)
    live, released = list(range(50)), []
    events = [("alloc", live[:25]), ("alloc", live[25:])]
    for _ in range(600):
        op = rng.choice(("t", "rz", "measure", "clifford", "ccz", "ccix", "release", "alloc"))
        if op == "release" and len(live) > 3:
            released.append(live.pop(rng.randrange(len(live))))
            events.append((op, [released[-1]]))
        elif op == "alloc" and released:
            live.append(released.pop(rng.randrange(len(released))))
            events.append((op, [live[-1]]))
        elif op not in ("release", "alloc"):
            arity = 3 if op in ("ccz", "ccix") else rng.choice((1, 2)) if op == "clifford" else 1
            events.append((op, rng.sample(live, arity)))
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(
        json.dumps({"op": op, "q": q}, separators=rng.choice(((", ", ": "), (",", ":"))))
        for op, q in events
    ))
    expected = count_trace(oracle_read(path))
    assert expected.num_qubits == 50 and expected.rotation_count > 0
    assert count_trace(read_trace(path)) == expected
    assert list(read_trace(path)) == oracle_read(path)
    # between two lines the table never holds more texts than the bound
    decoded = counts._decoded(counts._blocks(path), str(path))
    sizes = [len(decoded.gi_frame.f_locals["table"]) for _ in decoded]
    assert max(sizes) == min(bound, 50)
