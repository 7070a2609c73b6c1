"""Self-tests of the benchmark, on small versions of its workloads.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run
import spans
import workloads
from whittaker import cli, rseng, whitfun

HERE = Path(__file__).resolve().parent

# bindings that a patch at the defining module alone would miss
BY_NAME = [
    (rseng, "spherical_value"), (rseng, "essential_value"), (rseng, "euler_expand"),
    (rseng, "series_equal"), (whitfun, "schur"), (cli, "verify_essential"),
    (cli, "cauchy_check"),
]


def _small_plans(workdir):
    return [
        workloads.cauchy_sym(5, nmax=2, degree=4, probe=(2, 2, 5)),
        workloads.suite_numeric(5, min_count=18, degree=4),
        workloads.cli_symbolic(5, workdir, shapes=((2, 0, 1), (3, 2, 2)),
                               large_shapes=((4, 1, 2),), cauchy=(2, 2), degree=4,
                               repeats=2),
    ]


def test_every_span_records_calls_and_originals_are_restored(tmp_path):
    defined = {name: vars(owner)[attr] for name, (owner, attr) in spans.SPANS.items()}
    looked_up = {(module, attr): getattr(module, attr) for module, attr in BY_NAME}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module, attr in BY_NAME:
            assert getattr(module, attr) is not looked_up[(module, attr)], (module, attr)
        tracer.active = True
        plans = _small_plans(tmp_path)
        tracer.active = False
        for checks in plans:
            assert not run.execute(checks, 60, tracer).failures
    finally:
        tracer.uninstall()
    silent = [name for name in spans.SPANS if tracer.records[name].calls == 0]
    assert silent == []
    for name, (owner, attr) in spans.SPANS.items():
        assert vars(owner)[attr] is defined[name], name
    for (module, attr), original in looked_up.items():
        assert getattr(module, attr) is original, (module, attr)
    metrics = tracer.metrics(0.0)
    assert list(metrics) == [name for name, _, _ in spans.PER_LAYER]


def test_traced_and_untraced_outputs_are_byte_identical(tmp_path):
    untraced = [run.execute(checks, 60).digests for checks in _small_plans(tmp_path)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [run.execute(checks, 60, tracer).digests for checks in _small_plans(tmp_path)]
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert all(untraced)


def test_ceiling_fails_the_running_and_remaining_checks():
    checks = [workloads.Check("slow", lambda: time.sleep(5), lambda _: (True, b"")),
              workloads.Check("next", lambda: None, lambda _: (True, b""))]
    start = time.perf_counter()
    outcome = run.execute(checks, 0.2)
    assert time.perf_counter() - start < 2
    assert sorted(outcome.failures) == ["next", "slow"]
    assert all("unfinished" in reason for reason in outcome.failures.values())


def test_rounds_merge_to_best_times_and_any_failure():
    labels = ["a", "b", "c"]
    reports = [
        {"times": {"a": 0.5, "b": 0.2, "c": 0.1}, "digests": {"a": "00", "b": "11", "c": "22"},
         "failures": {}},
        {"times": {"a": 0.3, "b": 0.4, "c": 0.1}, "digests": {"a": "00", "b": "11", "c": "23"},
         "failures": {"b": "report did not pass"}},
        {"error": "round process exited with code 1"},
    ]
    outcome = run.merge_rounds(labels, reports[:2])
    assert outcome.times == {"a": 0.3, "b": 0.2, "c": 0.1}
    assert sorted(outcome.failures) == ["b", "c"]
    assert "differs" in outcome.failures["c"]
    assert sorted(run.merge_rounds(labels, reports).failures) == labels


def test_digest_mismatch_fails_the_check():
    outcome = run.Outcome(attempted=2, digests={"a": "00", "b": "11"})
    assert run.gate_digests(outcome, {"a": "00", "b": "12"}) == 2
    assert list(outcome.failures) == ["b"]


def test_tail_has_ten_samples_above_it():
    value, percentile = run.tail(list(range(1, 101)))
    assert (value, percentile) == (90, 90.0)


def test_without_the_library_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cauchy_sym", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        try:
            json.loads(line)
        except ValueError:
            continue
        raise AssertionError(f"printed a result: {line}")
