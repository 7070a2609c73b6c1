#!/usr/bin/env python3
"""Benchmark for the whittaker library: exact verifications per second.

Run from the repository root:

  python3 perfbench/run.py                        # every workload, one process each
  python3 perfbench/run.py --workload cauchy_sym --seed 3 --seconds 45
  python3 perfbench/run.py --trace 1              # per-layer spans instead

Each workload runs in its own process, single-threaded, one after another.
With --trace 0 the run repeats the workload's round of checks in fresh
processes, one at a time, and reports the end-to-end metrics from each
check's best time; with --trace 1 it wraps the library's public functions in
spans (spans.py), runs one round, and reports the per-layer metrics,
including the tracing overhead against an untraced round.  Every check is
verified exactly; with the default seed, the digest of every check's output
must also equal the one recorded in digests.json.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    import whittaker
except ImportError as exc:
    sys.exit(f"perfbench: cannot import whittaker from {SRC}: {exc}")
if Path(whittaker.__file__).resolve().parent.parent != SRC.resolve():
    sys.exit(f"perfbench: whittaker was imported from {whittaker.__file__}, not from {SRC}")

import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 45
# set-up probes before each round, so that they sample the host over the whole run
SETUP_PROBES_PER_ROUND = 1
# Every run ends well inside 180 s: the checks of a round stop at a ceiling
# of CEILING_FACTOR times the round's time on the baseline machine, and no
# round runs later than PROCESS_BUDGET_S after the run started.
CEILING_FACTOR = 4
PROCESS_BUDGET_S = 165.0
DIGESTS = HERE / "digests.json"
WORKDIR = ROOT / ".perfbench_work"

END_TO_END = [
    ("setup_s", "s"),
    ("checks_per_s", "1/s"),
    ("check_p50_ms", "ms"),
    ("check_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

STARTED = time.perf_counter()


class CeilingReached(BaseException):
    """Raised by SIGALRM when the checks run past the time ceiling."""


def _on_alarm(signum, frame):
    raise CeilingReached


@dataclass
class Outcome:
    attempted: int
    times: dict = field(default_factory=dict)     # label -> seconds of the timed call (best round)
    digests: dict = field(default_factory=dict)   # label -> output digest
    failures: dict = field(default_factory=dict)  # label -> reason

    def timed_s(self) -> float:
        return sum(self.times.values())

    def passed_times(self):
        return [t for label, t in self.times.items() if label not in self.failures]

    def fail(self, label: str, reason: str):
        self.failures.setdefault(label, reason)


def execute(checks, ceiling_s: float, tracer=None) -> Outcome:
    """Run the checks in order; only check.run is timed (and traced).

    Checks still running or not started when the ceiling is reached count
    as failed.
    """
    outcome = Outcome(attempted=len(checks))
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(ceiling_s, 0.001))
    done = 0
    try:
        for check in checks:
            if tracer is not None:
                tracer.active = True
            error = None
            start = time.perf_counter()
            try:
                result = check.run()
            except Exception as exc:  # a failed check must not end the run
                error = exc
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.active = False
            if error is None:
                passed, output = check.render(result)
                reason = "report did not pass or the CLI exited nonzero"
            else:
                passed, output, reason = False, None, f"raised {type(error).__name__}: {error}"
            outcome.times[check.label] = elapsed
            if output is not None:
                outcome.digests[check.label] = hashlib.sha256(output).hexdigest()[:16]
            if not passed:
                outcome.fail(check.label, reason)
            done += 1
    except CeilingReached:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    for check in checks[done:]:
        outcome.times.pop(check.label, None)
        outcome.digests.pop(check.label, None)
        outcome.fail(check.label, f"unfinished at the {ceiling_s:.0f} s time ceiling")
    return outcome


def gate_digests(outcome: Outcome, expected: dict) -> int:
    """Fail every check whose digest differs from the expected one; return the number compared."""
    compared = 0
    for label, digest in outcome.digests.items():
        if label in expected:
            compared += 1
            if expected[label] != digest:
                outcome.fail(label, "output digest differs from the recorded one")
    return compared


def recorded_digests(workload: str, seed: int) -> dict:
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {})


def record_digests(workload: str, outcome: Outcome):
    data = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    data[workload] = outcome.digests
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def tail(times):
    """The highest percentile with at least ten samples above it: (value, percentile)."""
    ordered = sorted(times)
    index = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _child(args, role: str, timeout: float, *extra: str):
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--role", role, *extra]
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)


def probe_setup(args) -> float:
    """Time from the start of a fresh process to its first timed check.

    The probe process imports whittaker, builds the workload's inputs from
    the seed, writes its representation files and reports the monotonic
    clock, which Linux shares between processes.
    """
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = _child(args, "setup-probe", 60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def _workdir() -> Path:
    path = WORKDIR / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


def _remove_workdir(path: Path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORKDIR.rmdir()
    except OSError:
        pass  # another run still uses it


def _budget_left() -> float:
    return PROCESS_BUDGET_S - (time.perf_counter() - STARTED)


def run_round_process(args) -> dict:
    """One round of checks in a fresh child process; its report, or a failure reason."""
    left = _budget_left()
    ceiling = min(CEILING_FACTOR * workloads.ROUND_SECONDS[args.workload], left - 5)
    if ceiling <= 0:
        return {"error": "not run: the run's time budget was spent"}
    try:
        proc = _child(args, "round", left, "--ceiling", repr(ceiling))
    except subprocess.TimeoutExpired:
        return {"error": "round process killed at the run's time budget"}
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"error": f"round process exited with code {proc.returncode}: "
                         f"{proc.stderr.strip()[-300:]}"}
    return json.loads(proc.stdout.splitlines()[-1])


def merge_rounds(labels, reports) -> Outcome:
    """One outcome per check over its rounds: the best time, and a failure if any round failed.

    Every round runs the same inputs, so every round must print the same
    output bytes.
    """
    outcome = Outcome(attempted=len(labels))
    for number, report in enumerate(reports, 1):
        if "error" in report:
            for label in labels:
                outcome.fail(label, f"round {number}: {report['error']}")
            continue
        for label in labels:
            if label in report["failures"]:
                outcome.fail(label, f"round {number}: {report['failures'][label]}")
            if label in report["times"]:
                outcome.times[label] = min(outcome.times.get(label, float("inf")),
                                           report["times"][label])
            digest = report["digests"].get(label)
            if digest is not None and outcome.digests.setdefault(label, digest) != digest:
                outcome.fail(label, f"round {number}: output differs from round 1")
    return outcome


def _report(outcome: Outcome, metrics: dict, units: dict, notes=()):
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")
    for label, reason in list(outcome.failures.items())[:10]:
        print(f"  FAILED {label}: {reason}", file=sys.stderr)
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_untraced(args) -> int:
    workdir = _workdir()
    try:
        labels = [check.label for check in workloads.build(args.workload, args.seed, workdir)]
    finally:
        _remove_workdir(workdir)
    rounds = workloads.rounds_for(args.workload, args.seconds)
    setup_samples, reports = [], []
    for _ in range(rounds):
        setup_samples.extend(probe_setup(args) for _ in range(SETUP_PROBES_PER_ROUND))
        reports.append(run_round_process(args))
    setup_s = statistics.median(setup_samples)
    outcome = merge_rounds(labels, reports)
    compared = gate_digests(outcome, recorded_digests(args.workload, args.seed))
    if args.record_digests and not outcome.failures:
        record_digests(args.workload, outcome)
    times = outcome.passed_times()
    tail_ms, tail_pct = tail(times) if times else (0.0, 0.0)
    metrics = {
        "setup_s": setup_s,
        "checks_per_s": len(times) / outcome.timed_s() if outcome.timed_s() else 0.0,
        "check_p50_ms": 1000 * statistics.median(times) if times else 0.0,
        "check_tail_ms": 1000 * tail_ms,
        "peak_rss_mb": max((report.get("peak_rss_mb", 0.0) for report in reports), default=0.0),
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(labels)} checks, each run in "
          f"{rounds} fresh round processes; best times sum to {outcome.timed_s():.2f} s")
    failed_frac = len(outcome.failures) / outcome.attempted
    notes = [
        f"{'failed_frac':32s} {failed_frac:.6g} ratio ({len(outcome.failures)} of {outcome.attempted})",
        f"check times are each check's best of {rounds} rounds; check_tail_ms is the "
        f"p{tail_pct:.1f} of {len(times)} checks; peak_rss_mb is the largest round process's",
        f"setup_s is the median of {len(setup_samples)} fresh processes, "
        f"{SETUP_PROBES_PER_ROUND} before each round",
        f"digest gate: {compared} of {len(outcome.digests)} outputs compared with {DIGESTS.name}",
    ]
    return _report(outcome, metrics, dict(END_TO_END), notes)


def run_traced(args) -> int:
    baseline = run_round_process(args)
    if "error" in baseline:
        raise RuntimeError(f"untraced round failed: {baseline['error']}")
    baseline["timed_s"] = sum(baseline["times"].values())
    tracer = spans.Tracer()
    workdir = _workdir()
    tracer.install()
    try:
        tracer.active = True
        checks = workloads.build(args.workload, args.seed, workdir)
        tracer.active = False
        ceiling = min(CEILING_FACTOR * workloads.ROUND_SECONDS[args.workload], _budget_left())
        outcome = execute(checks, ceiling, tracer)
    finally:
        tracer.uninstall()
        _remove_workdir(workdir)
    gate_digests(outcome, baseline["digests"])
    for label in baseline["failures"]:
        outcome.fail(label, "failed in the untraced run")
    compared = gate_digests(outcome, recorded_digests(args.workload, args.seed))
    overhead = outcome.timed_s() / baseline["timed_s"] - 1 if baseline["timed_s"] else 0.0
    metrics = tracer.metrics(overhead)
    print(f"workload {args.workload}, seed {args.seed} (traced): one round of {len(checks)} "
          f"checks, {outcome.timed_s():.2f} s traced, {baseline['timed_s']:.2f} s untraced")
    notes = [f"digest gate: traced outputs equal the untraced ones; {compared} compared "
             f"with {DIGESTS.name}"]
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    return _report(outcome, metrics, units, notes)


def run_round(args) -> int:
    """One round in this fresh process: each check's time, digest and failure, and peak memory."""
    workdir = _workdir()
    try:
        checks = workloads.build(args.workload, args.seed, workdir)
        outcome = execute(checks, args.ceiling)
    finally:
        _remove_workdir(workdir)
    print(json.dumps({"times": outcome.times, "digests": outcome.digests,
                      "failures": outcome.failures,
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
    return 0


def run_setup_probe(args) -> int:
    workdir = _workdir()
    try:
        workloads.build(args.workload, args.seed, workdir)
        print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    finally:
        _remove_workdir(workdir)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.record_digests:
            argv.append("--record-digests")
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, value in result["metrics"].items():
            metrics[f"{workload}.{name}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the whittaker library.")
    parser.add_argument("--workload", choices=("all",) + workloads.WORKLOADS, default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="time per run on the baseline machine; it fixes the number "
                             "of rounds, so both sides of a comparison run the same checks")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"write this run's output digests to {DIGESTS.name} "
                             f"(default seed only)")
    parser.add_argument("--role", choices=("main", "setup-probe", "round"), default="main",
                        help=argparse.SUPPRESS)
    parser.add_argument("--ceiling", type=float, default=60.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests needs the default seed {DEFAULT_SEED}")
    if args.workload == "all":
        return run_all(args)
    if args.role == "setup-probe":
        return run_setup_probe(args)
    if args.role == "round":
        return run_round(args)
    return run_traced(args) if args.trace else run_untraced(args)


if __name__ == "__main__":
    sys.exit(main())
