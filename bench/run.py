"""Benchmark runner for the bricks package.

    python3 bench/run.py --workload rect-audit --seed 1 --seconds 40 --trace 0

Runs one workload (see workloads.py and NOTES.md) in this process, one op
after another, for about --seconds seconds, checks every op's output against
its oracle outside the timed region, and prints as the last line of stdout
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, taken by wrapping the package's
public functions from outside (spans.py). Earlier stdout lines record the
environment and the sizes of the work done.

The package is imported from src/ next to this directory; the runner exits
with status 2 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from spans import (
    APPLY_SCHEDULE,
    PATHS,
    VALIDATE,
    Tracer,
    attribute_snapshot,
    unwrapped_problems,
)
from workloads import WORKLOADS, Library, purge_library

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 5
# Host speed drifts by up to 2x over seconds to minutes (NOTES.md). Timings
# are therefore scaled by a calibration loop run next to them: each op (or
# each run of short ops lasting CALIBRATE_EVERY_S) is scaled by the mean of
# the calibrations just before and just after it, so a reported second is a
# wall second on a host that runs calibrate() in CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.1
CALIBRATE_EVERY_S = 1.0
# Whole-run guard: a run that reaches it stops and reports the op it was in
# as failed, so a slow regression fails inside the driver's time limit.
RUN_LIMIT_S = 165.0


class RunTimeout(BaseException):
    """Raised by the run guard; a BaseException so no library handler that
    catches Exception or ValueError can swallow it."""


def _on_alarm(signum, frame):
    raise RunTimeout()


class _Point(NamedTuple):
    x: int
    y: int
    z: int


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work that does not use
    the package: the mix of tuple, dict and exact-rational operations the
    library spends its time in."""
    t0 = time.perf_counter()
    half = Fraction(1, 2)
    seen = {}
    below = 0
    for i in range(1, 15001):
        p = _Point(i, i % 7, -i)
        q = _Point(i % 5, i, 3)
        d = p.x * q.x + p.y * q.y + p.z * q.z
        if Fraction(d % 97, 97) + Fraction(i % 3, 4) < half:
            below += 1
        seen[(p, i & 15)] = d
    below += sum(1 for k, v in seen.items() if v > 0 and k[1] < 8)
    return time.perf_counter() - t0


class Clock:
    """Collects wall times and scales each by the calibrations around it."""

    def __init__(self):
        self.calibrations = [calibrate()]
        self.calibrated_at = time.perf_counter()
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._pending: list[float] = []

    def add(self, seconds: float) -> None:
        self._pending.append(seconds)

    def calibrate(self) -> None:
        self.calibrations.append(calibrate())
        self.calibrated_at = time.perf_counter()
        host = (self.calibrations[-2] + self.calibrations[-1]) / 2
        for seconds in self._pending:
            self.raw.append(seconds)
            self.scaled.append(seconds * CALIBRATION_REF_S / host)
        self._pending.clear()

    def due(self) -> bool:
        return time.perf_counter() - self.calibrated_at >= CALIBRATE_EVERY_S


def setup(workload, seed: int, workdir: str):
    """Import the package afresh and build the workload's inputs."""
    purge_library()
    t0 = time.perf_counter()
    lib = Library()
    cases = workload.build(lib, seed, workdir)
    return time.perf_counter() - t0, lib, cases


def commit_of(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "bricks").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs whole passes over the cases until the time is up. With a tracer,
    passes alternate untraced and traced, starting untraced, and the run
    ends after a traced pass. Only untraced ops feed the end-to-end clock."""

    def __init__(self, workload, lib, cases, expected, tracer=None):
        self.workload, self.lib = workload, lib
        self.cases, self.expected = cases, expected
        self.tracer = tracer
        self.clock = Clock()
        self.cpu = 0.0
        self.bricks_in = 0
        self.pass_walls = {False: [], True: []}
        self.traced_ops = 0
        self.traced_wall = 0.0
        self.attempted = self.failed = 0
        self.first_error = None
        self.first_result = None
        self.timed_out = False

    def run(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        traced = False
        while not self.timed_out:
            self._pass(traced)
            if time.perf_counter() >= deadline and (self.tracer is None or traced):
                break
            traced = self.tracer is not None and not traced
        self.clock.calibrate()

    def _pass(self, traced: bool) -> None:
        tracer = self.tracer if traced else None
        total = 0.0
        if tracer is not None:
            tracer.install()
        try:
            for case, expected in zip(self.cases, self.expected):
                if self.clock.due():
                    self.clock.calibrate()
                total += self._op(case, expected, tracer)
                if self.timed_out:
                    return
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.pass_walls[traced].append(total)

    def _op(self, case, expected, tracer) -> float:
        self.attempted += 1
        error = result = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = self.workload.op(self.lib, case.payload)
        except RunTimeout:
            self.timed_out = True
            error = "timed out (run guard)"
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if tracer is not None:
            tracer.end_op()
        if error is None:
            error = self.workload.check(result, expected)
        if error is not None:
            self.failed += 1
            self.first_error = self.first_error or error
        elif tracer is not None:
            self.traced_ops += 1
            self.traced_wall += wall
        else:
            self.first_result = self.first_result or result
            self.clock.add(wall)
            self.cpu += cpu
            self.bricks_in += case.bricks_in
        return wall


def p50_p90(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), deciles[-1]


def end_to_end_metrics(runner: Runner, setup_clock: Clock) -> dict:
    walls = runner.clock.scaled
    p50, p90 = p50_p90(walls)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_clock.scaled), "s"),
        "op_s_p50": (p50, "s"),
        "op_s_p90": (p90, "s"),
        "bricks_per_s": (runner.bricks_in / sum(walls), "1/s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }


SELF_TIMED = (
    VALIDATE,
    "complexes.brick_graph",
    APPLY_SCHEDULE,
    "surface.surface_stats",
    "fileformats.parse_complex",
    "fileformats.emit_complex",
    "geometry.scalar",
    "cli.main",
    "cli.build_parser",
    "cli.cmd_genus",
)
SETUP_TIMED = ("constructions.zz_embedded", "constructions.random_rectilinear")


def layer_metrics(runner: Runner, tracer: Tracer, setup_tracer: Tracer) -> dict:
    """Per traced op, except constructions.* (per traced set-up). Seconds are
    scaled by the run's median calibration; trace.overhead_ratio compares
    raw pass walls."""
    ops = runner.traced_ops
    contacts = sum(v[2] for v in tracer.validations if v[3])
    pairs = sum(v[1] for v in tracer.validations)
    metrics = {}
    for path in PATHS:
        count, seconds, _ = tracer.paths[path]
        metrics[f"geometry.classify_contact.{path}.pairs"] = (count / ops, "count")
        metrics[f"geometry.classify_contact.{path}.s"] = (seconds / ops, "s")
    metrics.update({
        "complexes.validate.calls": (tracer.calls(VALIDATE) / ops, "count"),
        "complexes.validate.pairs": (pairs / ops, "count"),
        "complexes.validate.contacts": (contacts / ops, "count"),
        "complexes.validate.useful_ratio": (contacts / pairs if pairs else 0.0,
                                            "ratio"),
        "refinement.apply_schedule.validate_s": (
            tracer.nested.get((APPLY_SCHEDULE, VALIDATE), 0.0) / ops, "s"),
        "refinement.apply_schedule.bricks_out": (
            tracer.refined_bricks / ops, "count"),
        "trace.harness_s": (
            (runner.traced_wall - tracer.library_s) / ops, "s"),
        "trace.overhead_ratio": (
            statistics.median(runner.pass_walls[True])
            / statistics.median(runner.pass_walls[False]), "ratio"),
        "op.bricks_in": (
            sum(c.bricks_in for c in runner.cases) / len(runner.cases), "count"),
        "fail_frac": (runner.failed / runner.attempted, "ratio"),
    })
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (tracer.self_s(name) / ops, "s")
    for name in SETUP_TIMED:
        metrics[f"{name}.s"] = (setup_tracer.total_s(name), "s")
    scale = CALIBRATION_REF_S / statistics.median(runner.clock.calibrations)
    return {name: (value * scale if unit == "s" else value, unit)
            for name, (value, unit) in metrics.items()}


def trace_problems(tracer: Tracer, runner: Runner) -> list[str]:
    """Identities the traced counts must satisfy whatever validate's
    algorithm: every pair validate classified took exactly one path, every
    non-disjoint outcome is a reported contact, and the self times add up to
    the time spent inside the library."""
    problems = []
    by_path = sum(rec[0] for rec in tracer.paths.values())
    classified = sum(v[1] for v in tracer.validations)
    if by_path != classified:
        problems.append(f"path pairs {by_path} != pairs classified in validate "
                        f"{classified}")
    nondisjoint = sum(rec[2] for rec in tracer.paths.values())
    contacts = sum(v[2] for v in tracer.validations if v[3])
    if nondisjoint != contacts:
        problems.append(f"non-disjoint outcomes {nondisjoint} != contacts "
                        f"{contacts}")
    gap = abs(tracer.self_sum() - tracer.library_s)
    if gap > 1e-6 * max(tracer.library_s, 1.0):
        problems.append(f"self times miss the library time by {gap} s")
    if tracer.library_s > runner.traced_wall:
        problems.append("library time exceeds traced op wall time")
    return problems


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bricks" / "__init__.py").is_file():
        print(f"bench: no bricks package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, RUN_LIMIT_S)
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        return _run(args, workdir)
    except RunTimeout:
        print("bench: run guard expired outside an op", file=sys.stderr)
        return 3
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: str) -> int:
    workload = WORKLOADS[args.workload]
    setup_clock = Clock()
    for _ in range(SETUP_REPS):
        seconds, lib, cases = setup(workload, args.seed, workdir)
        setup_clock.add(seconds)
        setup_clock.calibrate()
    if not Path(lib.package.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported bricks from {lib.package.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    snapshot = attribute_snapshot(lib.modules)
    disjoint = lib.geometry.ContactKind.DISJOINT

    setup_tracer = tracer = None
    if args.trace:
        setup_tracer = Tracer(lib.layers, lib.modules, disjoint)
        setup_tracer.install()
        try:
            cases = workload.build(lib, args.seed, workdir)
        finally:
            setup_tracer.uninstall()
        tracer = Tracer(lib.layers, lib.modules, disjoint)
    expected = [workload.oracle(lib, case) for case in cases]

    runner = Runner(workload, lib, cases, expected, tracer)
    runner.run(args.seconds)

    problems = [f"attribute left wrapped: {name}"
                for name in unwrapped_problems(lib.modules, snapshot)]
    if tracer is not None:
        problems += trace_problems(tracer, runner)
    if runner.first_error:
        problems.append(f"op failed: {runner.first_error}")
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    report_run(args, cases, runner, setup_clock)

    if args.trace and runner.traced_ops and runner.pass_walls[False]:
        metrics = layer_metrics(runner, tracer, setup_tracer)
    elif not args.trace and runner.clock.scaled:
        metrics = end_to_end_metrics(runner, setup_clock)
    else:
        print("bench: no op passed its check", file=sys.stderr)
        problems.append("no metrics")
        metrics = {}
    emit(not problems, runner.attempted, runner.failed, metrics)
    return 0


def report_run(args, cases, runner: Runner, setup_clock: Clock) -> None:
    """Environment, sizes of the work done, and the unscaled timings."""
    print(json.dumps({"environment": {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_of(ROOT),
        "src_sha256": source_digest(SRC),
    }}))
    sizes = {"cases": len(cases), "ops": runner.attempted,
             "ops_traced": runner.traced_ops,
             "bricks_in": [c.bricks_in for c in cases[:8]]}
    if runner.first_result is not None:
        sizes["first_result"] = {k: v for k, v in runner.first_result.items()
                                 if isinstance(v, (int, bool))}
    tracer = runner.tracer
    if tracer is not None and tracer.validations:
        # (bricks, pairs classified, contacts, first call on that complex)
        per_op = len(tracer.validations) // max(runner.traced_ops, 1)
        sizes["validate_calls_first_op"] = tracer.validations[:min(per_op, 8)]
    print(json.dumps({"sizes": sizes}))
    clock = runner.clock
    if clock.raw:
        p50, p90 = p50_p90(clock.raw)
        calibrations = setup_clock.calibrations + clock.calibrations
        print(json.dumps({"unscaled": {
            "setup_s": statistics.median(setup_clock.raw),
            "op_s_p50": p50,
            "op_s_p90": p90,
            "cpu_per_wall": runner.cpu / sum(clock.raw),
            "calibration_s": [min(calibrations), statistics.median(calibrations),
                              max(calibrations)],
            "calibrations": len(calibrations),
        }}))


if __name__ == "__main__":
    raise SystemExit(main())
