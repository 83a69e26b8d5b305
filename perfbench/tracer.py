"""Per-layer tracing from outside the package.

:class:`Tracer` replaces each traced function at the name its caller
resolves (a module attribute, or a class attribute for methods) with a
wrapper that records a span, and puts the originals back on exit.  A
target whose attribute no longer exists is reported as missing; its
metrics read ``None``, never zero.

Spans nest through a stack, so each span knows its parent and a layer's
self time is its spans' time minus that of their child spans.  Totals
are kept for every span; the span records themselves stay in memory up
to ``SPAN_LOG_LIMIT`` and are written out when the run ends.
"""

from __future__ import annotations

import importlib
from array import array
from pathlib import Path
from time import perf_counter_ns

# (metric prefix, owner "module[:Class]", attribute).  The prefix names the
# layer (module) that defines the function; the owner is where its
# callers look it up.
TARGETS = (
    ("cli.main", "ftqc_estimator.cli", "main"),
    ("jobs.load_job", "ftqc_estimator.jobs", "load_job"),
    ("jobs.job_from_mapping", "ftqc_estimator.jobs", "job_from_mapping"),
    ("jobs.run_job", "ftqc_estimator.jobs", "run_job"),
    ("jobs.run_frontier", "ftqc_estimator.jobs", "run_frontier"),
    ("profiles.load_profile", "ftqc_estimator.profiles", "load_profile"),
    # jobs imports these two by name, so they are looked up on jobs
    ("counts.read_trace", "ftqc_estimator.jobs", "read_trace"),
    ("counts.count_trace", "ftqc_estimator.jobs", "count_trace"),
    ("pipeline.estimate", "ftqc_estimator.pipeline", "estimate"),
    ("pipeline.frontier", "ftqc_estimator.pipeline", "frontier"),
    ("layout.estimate_algorithmic", "ftqc_estimator.layout", "estimate_algorithmic"),
    ("qec.compute_code_distance", "ftqc_estimator.qec", "compute_code_distance"),
    ("qec.logical_qubit_profile", "ftqc_estimator.qec", "logical_qubit_profile"),
    ("tfactory.search_pipeline", "ftqc_estimator.tfactory", "search_pipeline"),
    ("tfactory.size_fleet", "ftqc_estimator.tfactory", "size_fleet"),
    ("formulas.parse_formula", "ftqc_estimator.formulas", "parse_formula"),
    ("formulas.evaluate", "ftqc_estimator.formulas", "evaluate"),
    ("report.to_json", "ftqc_estimator.report:EstimateReport", "to_json"),
)

# Per-layer metrics, all means per request: (name, unit, source) where
# source is (target prefix, "calls" | "ms"), ("self", layer) or
# ("events", None).  ``trace.overhead_ms`` is filled in by the runner.
PER_LAYER = (
    ("formulas.evaluate.calls", "count", ("formulas.evaluate", "calls")),
    ("formulas.evaluate.ms", "ms", ("formulas.evaluate", "ms")),
    ("formulas.parse_formula.calls", "count", ("formulas.parse_formula", "calls")),
    ("formulas.parse_formula.ms", "ms", ("formulas.parse_formula", "ms")),
    ("tfactory.search_pipeline.calls", "count", ("tfactory.search_pipeline", "calls")),
    ("tfactory.search_pipeline.ms", "ms", ("tfactory.search_pipeline", "ms")),
    ("tfactory.size_fleet.ms", "ms", ("tfactory.size_fleet", "ms")),
    ("profiles.load_profile.calls", "count", ("profiles.load_profile", "calls")),
    ("profiles.load_profile.ms", "ms", ("profiles.load_profile", "ms")),
    ("jobs.job_from_mapping.ms", "ms", ("jobs.job_from_mapping", "ms")),
    ("jobs.load_job.ms", "ms", ("jobs.load_job", "ms")),
    ("jobs.run_job.ms", "ms", ("jobs.run_job", "ms")),
    ("jobs.run_frontier.ms", "ms", ("jobs.run_frontier", "ms")),
    ("jobs.self_ms", "ms", ("self", "jobs")),
    ("report.to_json.ms", "ms", ("report.to_json", "ms")),
    ("pipeline.estimate.calls", "count", ("pipeline.estimate", "calls")),
    ("pipeline.estimate.ms", "ms", ("pipeline.estimate", "ms")),
    ("pipeline.self_ms", "ms", ("self", "pipeline")),
    ("qec.compute_code_distance.ms", "ms", ("qec.compute_code_distance", "ms")),
    ("qec.logical_qubit_profile.ms", "ms", ("qec.logical_qubit_profile", "ms")),
    ("layout.estimate_algorithmic.ms", "ms", ("layout.estimate_algorithmic", "ms")),
    ("counts.read_trace.ms", "ms", ("counts.read_trace", "ms")),
    ("counts.count_trace.ms", "ms", ("counts.count_trace", "ms")),
    ("counts.events", "count", ("events", None)),
    ("cli.main.calls", "count", ("cli.main", "calls")),
    ("cli.self_ms", "ms", ("self", "cli")),
)

SPAN_LOG_LIMIT = 100_000


def _resolve_owner(spec: str):
    module_name, _, class_name = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Context manager that wraps every target while it is active.

    It may be entered again after it exits; totals and spans accumulate.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = [prefix for prefix, _, _ in targets]
        self.layers = sorted({prefix.split(".")[0] for prefix in self.names})
        self.missing: list[str] = []
        self.calls = [0] * len(targets)
        self.ns = [0] * len(targets)
        self.self_ns = dict.fromkeys(self.layers, 0)
        self.events = 0
        self.request = 0
        self.dropped = 0
        # span log columns: id, parent id (-1 for a root), target, request, start, end
        self.log = tuple(array("q") for _ in range(6))
        self._active = [0] * len(targets)
        self._stack: list[list[int]] = []  # [span id, target, child ns]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.missing = []
        for index, (prefix, owner_spec, attr) in enumerate(self.targets):
            owner = _resolve_owner(owner_spec)
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                self.missing.append(prefix)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(index, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, index: int, fn):
        layer = self.names[index].split(".")[0]
        counts_events = self.names[index] == "counts.count_trace"

        def traced(*args, **kwargs):
            if self._active[index]:
                # a recursive call: only top-level calls are spans
                return fn(*args, **kwargs)
            if counts_events:
                args = (self._counted(args[0]),) + args[1:]
            span = self._next_id
            self._next_id += 1
            frame = [span, index, 0]
            self._stack.append(frame)
            self._active[index] += 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._active[index] -= 1
                self._stack.pop()
                elapsed = end - start
                self.calls[index] += 1
                self.ns[index] += elapsed
                self.self_ns[layer] += elapsed - frame[2]
                parent = -1
                if self._stack:
                    self._stack[-1][2] += elapsed
                    parent = self._stack[-1][0]
                self._record(span, parent, index, start, end)

        traced.__wrapped__ = fn
        return traced

    def _counted(self, events):
        # read_trace returns a list; a streaming reader would hand over an
        # iterator, whose events are counted as they pass
        if hasattr(events, "__len__"):
            self.events += len(events)
            return events
        return self._count_iter(events)

    def _count_iter(self, events):
        for event in events:
            self.events += 1
            yield event

    def _record(self, span: int, parent: int, index: int, start: int, end: int) -> None:
        if len(self.log[0]) >= SPAN_LOG_LIMIT:
            self.dropped += 1
            return
        for column, value in zip(self.log, (span, parent, index, self.request, start, end)):
            column.append(value)

    def metrics(self, requests: int) -> dict:
        """Per-request means of every per-layer metric; ``None`` when missing."""
        out = {}
        for name, unit, (source, kind) in PER_LAYER:
            if source == "self":
                value = self.self_ns[kind] / 1e6
            elif source == "events":
                value = None if "counts.count_trace" in self.missing else self.events
            elif source in self.missing:
                value = None
            else:
                index = self.names.index(source)
                value = self.calls[index] if kind == "calls" else self.ns[index] / 1e6
            out[name] = {"value": None if value is None else value / requests, "unit": unit}
        return out

    def write_spans(self, path: Path) -> int:
        """Write the span log as tab-separated lines; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        ids, parents, targets, requests, starts, ends = self.log
        with open(path, "w") as out:
            out.write(f"# spans kept {len(ids)}, dropped {self.dropped}\n")
            out.write("id\tparent\tname\trequest\tstart_ns\tend_ns\n")
            for row in zip(ids, parents, targets, requests, starts, ends):
                out.write(f"{row[0]}\t{row[1]}\t{self.names[row[2]]}\t{row[3]}\t{row[4]}\t{row[5]}\n")
        return len(ids)
