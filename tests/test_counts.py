"""Trace counting: width, tallies, rotation layering, and trace errors."""

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


def test_canonical_spellings_take_the_fast_path(monkeypatch):
    lines = [json.dumps({"op": op, "q": q}, separators=separators)
             for op, q in (("t", [12]), ("ccz", [0, 1, 2]), ("alloc", [0]), ("clifford", [3, 4]))
             for separators in ((", ", ": "), (",", ":"))]

    def refuse(text):
        raise AssertionError(f"json.loads called on {text!r}")

    monkeypatch.setattr(counts.json, "loads", refuse)
    assert len(list(parse_trace_lines(lines))) == len(lines)


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
