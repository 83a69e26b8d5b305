"""How fast the shared machine runs at a given moment, for scaling timings.

The benchmark runs on a few cores of a shared host.  Other tenants slow
every process on it, often by a third and at times by a half, for spells
that last from milliseconds to minutes, so a wall time says as much about
the neighbours as about the program.  :class:`SpeedProbe` times a fixed
reference kernel between requests.  A request's wall time multiplied by
``REFERENCE_NS`` over the kernel time measured around it is its latency at
the reference speed: the speed at which the kernel takes exactly 1 ms.
A change to the program moves that figure as it moves the wall time; a
slow spell of the host moves the kernel and the request alike and cancels.

The kernel is work of the kinds the package does: JSON lines decoded
into a list and tallied, as in trace ingestion; a small expression tree
evaluated recursively in floating point, as in formula evaluation; and a
fresh megabyte of memory touched page by page, as a growing heap is.  It
imports nothing from the package, so no change to the program changes it.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns

REFERENCE_NS = 1_000_000  # kernel time at the reference speed
REPS = 3  # fewest kernel runs in one sample
SHARE = 0.05  # share of the time since the last sample that a sample fills

_OPS = ("t", "rz", "ccz", "measure", "clifford", "ccix")
_LINES = tuple(
    json.dumps({"op": _OPS[i % 6], "q": [(7919 * i) % 4001, (104729 * i + 5) % 3001][: 1 + i % 2]})
    for i in range(300)
)
_PAGE = 4096
_HEAP = 1 << 20
# (op, left, right) nodes over float leaves
_TREE = ("+", ("*", 31.0, ("^", ("/", 1.5, 7.0), 3.0)),
         ("-", ("*", 35.0, ("^", 0.01, 2.0)), ("/", 11.0, ("+", 2.0, 0.5))))


def _evaluate(node) -> float:
    if isinstance(node, float):
        return node
    op, left, right = node
    a, b = _evaluate(left), _evaluate(right)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    return a ** b


def reference_work() -> float:
    """The fixed kernel: about 1 ms on a 2.1 GHz Xeon core with CPython 3.11."""
    events = [json.loads(line) for line in _LINES]
    tally: dict = {}
    for event in events:
        tally[event["op"]] = tally.get(event["op"], 0) + len(event["q"])
    total = float(sum(tally.values()))
    for _ in range(48):
        total += _evaluate(_TREE)
    heap = bytearray(_HEAP)
    for offset in range(0, _HEAP, _PAGE):
        heap[offset] = 1
    return total + len(heap)


class SpeedProbe:
    """Kernel times taken at least ``every_ms`` apart, in the order taken.

    A sample is the median of at least ``REPS`` kernel runs, and of as many
    more as fill ``SHARE`` of the time since the previous sample, so that
    the samples around a long request cover more of the spell it ran in.
    """

    def __init__(self, every_ms: float = 50.0):
        self.every_ns = int(every_ms * 1e6)
        self.samples_ns: list[float] = []
        self._last_ns = 0
        reference_work()  # warm the kernel's code paths before the first sample

    def measure(self, budget_ns: float = 0) -> float:
        """The kernel's median time now, over ``REPS`` runs or ``budget_ns``."""
        times = []
        spent = 0
        while len(times) < REPS or (spent < budget_ns and len(times) < 200):
            start = perf_counter_ns()
            reference_work()
            times.append(perf_counter_ns() - start)
            spent += times[-1]
        return statistics.median(times)

    def sample(self) -> int:
        """Record a kernel time; return its index."""
        budget = SHARE * (perf_counter_ns() - self._last_ns) if self.samples_ns else 0
        self.samples_ns.append(self.measure(budget))
        self._last_ns = perf_counter_ns()
        return len(self.samples_ns) - 1

    def due(self) -> int:
        """Index of the latest sample, taking a new one when it is due."""
        if not self.samples_ns or perf_counter_ns() - self._last_ns >= self.every_ns:
            return self.sample()
        return len(self.samples_ns) - 1

    def scale(self, before: int) -> float:
        """Factor to the reference speed between samples ``before`` and the next."""
        after = self.samples_ns[min(before + 1, len(self.samples_ns) - 1)]
        return REFERENCE_NS / ((self.samples_ns[before] + after) / 2)

    def around(self, call) -> float:
        """Run ``call()``; return the factor to the reference speed around it."""
        before = self.measure()
        call()
        return REFERENCE_NS / ((before + self.measure()) / 2)
