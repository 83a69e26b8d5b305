"""Benchmark of the ftqc_estimator package, driven from outside.

Usage, from the repository root::

    python3 perfbench/run.py --workload estimate-batch --seed 1 --seconds 36 --trace 0

One process, one thread, one client in a closed loop: each request is
sent when the previous one has returned.  The run generates its inputs
from ``--seed`` and sends them in whole passes, at least ``MIN_PASSES``
and as many as fit in ``--seconds``.  Every timing is scaled to a
reference machine speed by a fixed kernel timed between requests (see
``speed.py``), so that the slow spells of a shared host move the figures
little; the summary shows the kernel's median time.  Every output is
checked by the independent checker and must repeat byte for byte on later passes.  The
run prints a summary followed by one JSON line: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run, measured against an untraced run of the same requests.  See
``LAYERS.md`` for what each metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import checker
import workloads
from speed import SpeedProbe
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
OUT_DIR = BENCH_DIR / "_out"

MIN_REQUESTS = 100  # distinct requests a 90th percentile needs
MIN_PASSES = 3  # samples behind each per-request median
SETUP_PROBES = 21

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import ftqc_estimator, ftqc_estimator.cli; print(time.perf_counter() - t)"
)


class SetupProbes:
    """Times for a fresh interpreter to import the package and CLI.

    Each import time is scaled to the reference speed by the kernel times
    taken around its probe.  The probes are taken a few at a time between
    passes, in step with the run's clock, so that their median covers the
    whole run rather than one moment of it.
    """

    def __init__(self, speed: SpeedProbe, count: int = SETUP_PROBES):
        self.speed = speed
        self.count = count
        self.samples: list[float] = []
        self._probe()  # the first import may still write bytecode caches
        self.samples.clear()

    def _probe(self) -> None:
        seconds = []

        def once():
            done = subprocess.run(
                [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
                capture_output=True, text=True, check=True, timeout=60,
            )
            seconds.append(float(done.stdout))

        factor = self.speed.around(once)
        self.samples.append(seconds[0] * factor)

    def keep_up(self, share: float) -> None:
        """Probe until ``share`` (0 to 1) of all the probes are taken."""
        while len(self.samples) < min(self.count, 1 + int(share * self.count)):
            self._probe()

    def median(self) -> float:
        self.keep_up(1.0)
        return statistics.median(self.samples)


class EstimateBatch:
    """Library path: job_from_mapping -> run_job -> EstimateReport.to_json."""

    def __init__(self, seed: int, work: Path, size: int = 1200):
        from ftqc_estimator import EstimationStageError, EstimatorError, jobs

        self._jobs = jobs
        self._errors = (EstimatorError, EstimationStageError)
        self.requests = workloads.estimate_batch(seed, size)

    def call(self, request: dict) -> str:
        estimator_error, stage_error = self._errors
        jobs = self._jobs
        try:
            job = jobs.job_from_mapping(request["job"])
            return jobs.run_job(job, request["slowdown"]).to_json()
        except estimator_error as exc:
            cause = exc.cause if isinstance(exc, stage_error) else exc
            return json.dumps({"error": {"type": type(cause).__name__,
                                         "stage": getattr(exc, "stage", None),
                                         "message": str(cause)}})

    def check(self, request: dict, output: str) -> tuple[list[str], int]:
        if output.startswith('{"error"'):
            return checker.check_error(output, request["expect"]), 1
        return checker.check_report(output, request["expect"]), 1


class CliWorkload:
    """In-process ``cli.main`` on job files written at set-up."""

    def __init__(self, work: Path):
        from ftqc_estimator import cli

        self._cli = cli
        self.work = work
        work.mkdir(parents=True, exist_ok=True)

    def write_job(self, index: int, job: dict) -> str:
        path = self.work / f"job-{index}.json"
        path.write_text(json.dumps(job))
        return str(path)

    def call(self, request: dict) -> str:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self._cli.main(request["argv"])
        return f"exit {code}\n{stdout.getvalue()}{stderr.getvalue()}"


class FrontierCustomUnits(CliWorkload):
    """``cli frontier`` over a slowdown grid with distance-dependent units."""

    def __init__(self, seed: int, work: Path, size: int = 102):
        super().__init__(work)
        self.requests = workloads.frontier_custom_units(seed, size)
        for index, request in enumerate(self.requests):
            grid = ",".join(repr(s) for s in request["grid"])
            request["argv"] = ["frontier", "--job", self.write_job(index, request["job"]),
                               "--slowdown-grid", grid]

    def check(self, request: dict, output: str) -> tuple[list[str], int]:
        problems = checker.check_cli(output, request["expect"])
        # every grid point is one estimate
        return problems, len(request["grid"])


class TraceIngest(CliWorkload):
    """``cli estimate`` on jobs that point at seeded gate-event traces."""

    def __init__(self, seed: int, work: Path, events: tuple = workloads.TRACE_EVENTS):
        super().__init__(work)
        self.requests = workloads.trace_ingest(seed, events)
        for index, request in enumerate(self.requests):
            spec = request["trace"]
            request["expect"]["counts"] = workloads.write_trace(self.work / spec["file"], spec)
            request["argv"] = ["estimate", "--job", self.write_job(index, request["job"])]

    def check(self, request: dict, output: str) -> tuple[list[str], int]:
        return checker.check_cli(output, request["expect"]), 1


WORKLOADS = {
    "estimate-batch": EstimateBatch,
    "frontier-custom-units": FrontierCustomUnits,
    "trace-ingest": TraceIngest,
}


class Phase:
    """Closed-loop passes over a workload's requests, with checked outputs.

    Wall times are kept per request, each with the index of the
    ``speed`` sample taken before it.  A request's latency is the median
    over the passes of its wall time scaled to the reference speed by the
    samples around it (see ``speed.py``); without ``speed`` it is the
    plain median wall time.  The end-to-end percentiles are taken over
    those per-request latencies.
    """

    def __init__(self, workload, speed: SpeedProbe = None):
        self.workload = workload
        self.speed = speed
        n = len(workload.requests)
        self.latencies_ns: list[list[int]] = [[] for _ in range(n)]
        self.slots: list[list[int]] = [[] for _ in range(n)]
        self.estimates = [0] * n  # estimates each request answers correctly
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.busy_ns = 0
        self.problems: list[str] = []
        self._first: list = [None] * n
        self._ok: list = [False] * n

    def run(self, seconds: float, min_passes: int = 1, passes: int = 0,
            tracer: Tracer = None, between=None) -> "Phase":
        """Run ``passes`` whole passes, or as many as fit in ``seconds``.

        Without ``passes``, a further pass starts only when one more pass of
        the last one's length still ends within ``seconds``, and at least
        ``min_passes`` are run.  ``between``, if given, is called after each
        pass with the share of ``seconds`` used so far.
        """
        workload, speed = self.workload, self.speed
        started = perf_counter()
        while True:
            pass_started = perf_counter()
            for index, request in enumerate(workload.requests):
                if tracer is not None:
                    tracer.request = self.attempted
                if speed is not None:
                    self.slots[index].append(speed.due())
                start = perf_counter_ns()
                try:
                    output = workload.call(request)
                except Exception as exc:  # anything but a typed EstimatorError fails
                    output = f"internal error {type(exc).__name__}: {exc}"
                elapsed = perf_counter_ns() - start
                self.latencies_ns[index].append(elapsed)
                self.busy_ns += elapsed
                self._account(index, request, output)
            self.passes += 1
            if between is not None:
                between((perf_counter() - started) / seconds if seconds else 1.0)
            if passes:
                if self.passes >= passes:
                    break
                continue
            now = perf_counter()
            if self.passes >= min_passes and now + (now - pass_started) - started > seconds:
                break
        if speed is not None:
            speed.sample()  # the sample after the last request
        return self

    def _account(self, index: int, request: dict, output: str) -> None:
        self.attempted += 1
        if self._first[index] is None:
            self._first[index] = output
            if output.startswith("internal error"):
                problems, estimates = [output], 0
            else:
                problems, estimates = self.workload.check(request, output)
            self._ok[index] = not problems
            self.estimates[index] = estimates if not problems else 0
            self.problems += [f"request {index}: {p}" for p in problems]
        elif output != self._first[index]:
            self._ok[index] = False
            self.estimates[index] = 0
            self.problems.append(f"request {index}: output differs from its first run")
        if not self._ok[index]:
            self.failed += 1

    def request_ms(self, scaled: bool = True) -> list[float]:
        """Each request's latency over the passes, in request order."""
        if self.speed is None or not scaled:
            return [statistics.median(samples) / 1e6 for samples in self.latencies_ns]
        scale = self.speed.scale
        return [statistics.median(ns * scale(slot) for ns, slot in zip(samples, slots)) / 1e6
                for samples, slots in zip(self.latencies_ns, self.slots)]

    def rate(self, per_request) -> float:
        """Work per second of a pass run at every request's latency."""
        return sum(per_request) * 1e3 / sum(self.request_ms())

    def digest(self) -> str:
        """SHA-256 over the outputs of one pass, in request order."""
        digest = hashlib.sha256()
        for output in self._first:
            digest.update(output.encode())
            digest.update(b"\0")
        return digest.hexdigest()


def end_to_end(phase: Phase, setup_s: float) -> tuple[dict, list[str]]:
    """The BENCHMARK.json metrics, plus summary lines for the other ones."""
    latencies = sorted(phase.request_ms())
    ok_frac = (phase.attempted - phase.failed) / phase.attempted
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "job_ms.p50": {"value": statistics.median(latencies), "unit": "ms"},
        # the requests of a pass are the whole population, not a sample of it
        "job_ms.p90": {"value": statistics.quantiles(latencies, n=10, method="inclusive")[8],
                       "unit": "ms"},
        "estimates_per_s": {"value": phase.rate(phase.estimates), "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "ok_frac": {"value": ok_frac, "unit": "ratio"},
    }
    lines = [f"fail_frac {1 - ok_frac:.6f} ratio ({phase.failed} of {phase.attempted})",
             f"job_ms percentiles over {len(latencies)} per-request latencies of "
             f"{phase.passes} passes, at the reference speed",
             f"unscaled wall time: job_ms.p50 "
             f"{statistics.median(phase.request_ms(scaled=False)):.6g} ms",
             f"machine speed: kernel median {statistics.median(phase.speed.samples_ns) / 1e6:.4f}"
             f" ms over {len(phase.speed.samples_ns)} samples, the reference is 1 ms"]
    if isinstance(phase.workload, TraceIngest):
        events = [request["trace"]["events"] for request in phase.workload.requests]
        lines.append(f"events_per_s {phase.rate(events):.1f} 1/s")
    if len(latencies) < MIN_REQUESTS:
        lines.append(f"job_ms.p90 rests on {len(latencies)} requests, fewer than "
                     f"{MIN_REQUESTS}: read it as the two slowest requests")
    return metrics, lines


def traced_run(workload, name: str, seconds: float) -> tuple[tuple, dict, list[str], bool]:
    """Alternate untraced and traced passes for about ``seconds``.

    Alternating keeps a drift in machine speed out of the overhead figure.
    Returns both phases, the per-layer metrics, summary lines, and whether
    the two phases produced the same output digest.
    """
    plain, traced = Phase(workload), Phase(workload)
    tracer = Tracer()
    started = perf_counter()
    while True:
        round_started = perf_counter()
        plain.run(0, passes=plain.passes + 1)
        with tracer:
            traced.run(0, passes=traced.passes + 1, tracer=tracer)
        now = perf_counter()
        if now + (now - round_started) - started > seconds:
            break
    spans = tracer.write_spans(OUT_DIR / f"spans-{name}.tsv")
    metrics = tracer.metrics(traced.attempted)
    overhead = (traced.busy_ns - plain.busy_ns) / 1e6 / traced.attempted
    metrics["trace.overhead_ms"] = {"value": overhead, "unit": "ms"}
    same = plain.digest() == traced.digest()
    lines = [
        f"untraced {plain.busy_ns / 1e9:.3f} s, traced {traced.busy_ns / 1e9:.3f} s over "
        f"{traced.attempted} requests each: overhead {overhead:.4f} ms/request",
        f"digest untraced {plain.digest()}",
        f"digest traced   {traced.digest()} ({'equal' if same else 'DIFFERENT'})",
        f"spans written {spans} (dropped {tracer.dropped}) to "
        f"{(OUT_DIR / f'spans-{name}.tsv').relative_to(ROOT)}",
        "missing: " + (", ".join(tracer.missing) if tracer.missing else "none"),
    ]
    return (plain, traced), metrics, lines, same


def run_all(args) -> int:
    """Run every workload in a fresh interpreter of its own, one after another."""
    worst = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False, timeout=600,
        )
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "ftqc_estimator" / "__init__.py").is_file():
        print(f"perfbench: no ftqc_estimator package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            phases, metrics, lines, correct = traced_run(workload, args.workload, args.seconds)
        else:
            speed = SpeedProbe()
            probes = SetupProbes(speed)
            probes.keep_up(0.0)
            phase = Phase(workload, speed).run(args.seconds, MIN_PASSES, between=probes.keep_up)
            metrics, lines = end_to_end(phase, probes.median())
            lines.insert(0, f"digest {phase.digest()}")
            phases = (phase,)
            correct = True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [p for phase in phases for p in phase.problems]
    correct = correct and not problems and failed == 0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} requests in {sum(p.passes for p in phases)} passes, "
          f"python {sys.version.split()[0]}, nproc {os.cpu_count()}")
    for line in lines:
        print(line)
    for problem in problems[:20]:
        print(f"problem: {problem}")
    for key, metric in metrics.items():
        value = "missing" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{key} {value} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
