"""The scripts under scripts/: bad arguments exit 2, tiny runs pass, mutation anchors match."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SUITE = ROOT / "scripts" / "run_verification_suite.py"
SWEEP = ROOT / "scripts" / "cauchy_sweep.py"
LARGE = ROOT / "scripts" / "large_verify.py"


def _run(script, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(script), *argv], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("script, argv, message", [
    (SUITE, ["--degree", "-1"], "--degree must be nonnegative"),
    (SUITE, ["--count", "0"], "--count must be positive"),
    (SWEEP, ["--degree", "-1"], "--degree must be nonnegative"),
    (SWEEP, ["--nmax", "0"], "--nmax must be positive"),
    (LARGE, ["src", "src", "--pairs", "0"], "--pairs must be positive"),
    (LARGE, ["src", "src", "--shape", "2,3,1"], "0 <= r <= n"),
])
def test_bad_arguments_exit_2(script, argv, message):
    # exit 1 means the identity failed, and a run that checks nothing is
    # no pass, so both kinds of bad value end in a usage error
    done = _run(script, *argv)
    assert done.returncode == 2
    assert message in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("script, argv, last", [
    (SUITE, ["--count", "1", "--degree", "1"], "0 failures"),
    (SWEEP, ["--nmax", "1", "--degree", "2"], "n=1 m=1 degree=2: pass"),
])
def test_tiny_runs_pass(script, argv, last):
    done = _run(script, *argv)
    assert done.returncode == 0, done.stderr
    assert last in done.stdout.splitlines()[-1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_large_verify_of_one_src_against_itself_agrees():
    done = _run(LARGE, str(ROOT / "src"), str(ROOT / "src"), "--shape", "2,1,1")
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(done.stdout)
    runs = report["parent"]["runs"] + report["change"]["runs"]
    assert report["problems"] == [] and len(runs) == 2
    assert len({(run["bytes"], run["sha256"]) for run in runs}) == 1
    assert all(run["exit"] == 0 and run["bytes"] > 0 for run in runs)


def test_large_verify_fails_on_a_wrong_recorded_digest(monkeypatch, capsys):
    module = _load("large_verify")
    monkeypatch.setitem(module.DIGESTS, (2, 1, 1), (414, "0" * 64))
    src = str(ROOT / "src")
    assert module.main([src, src, "--shape", "2,1,1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["problems"] == ["the output differs from the recorded digest"]


def _stages_on_both_sides(shape):
    done = _run(LARGE, str(ROOT / "src"), str(ROOT / "src"), "--shape", shape, "--stages")
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(done.stdout)
    for side in ("parent", "change"):
        stages = report[side]["stages"]
        assert sorted(stages) == ["spot_check", "verify_essential", "write_summary"]
        assert all(sorted(figures) == ["traced_peak_mb", "traced_wall_s", "wall_s"]
                   and min(figures.values()) >= 0 for figures in stages.values())


def test_large_verify_stages_on_both_sides():
    # each stage's wall time from an untraced child, and its traced time
    # and peak from a traced one
    _stages_on_both_sides("2,1,1")


def test_large_verify_stages_of_an_orbit_route_shape():
    # 2 x 2 distinct atoms take the orbit route, and a stage that raised,
    # as a spot-check of their orbit form that disagreed would, exits
    # nonzero
    _stages_on_both_sides("3,2,2")


def test_large_verify_stages_untraced_record_no_peak(tmp_path):
    # the untraced pass starts no tracing, so it has no peak to give
    import tracemalloc

    module = _load("large_verify")
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps(module._rep((2, 1, 1))), encoding="utf-8")
    figures = module.stages(str(rep), 1, False)
    assert not tracemalloc.is_tracing()
    assert sorted(figures) == ["spot_check", "verify_essential", "write_summary"]
    assert all(list(stage) == ["wall_s"] for stage in figures.values())


def test_an_anchor_reaching_a_comment_is_reported(monkeypatch, tmp_path):
    # an anchor must lie in code: one that takes in a trailing comment, or
    # runs from a comment into the next line, is reported; one that stops
    # short of the comment is not
    module = _load("mutation_check")
    (tmp_path / "whittaker").mkdir()
    (tmp_path / "whittaker" / "x.py").write_text("a = 1  # one\nb = 2\n", encoding="utf-8")
    anchors = {"code": "a = 1", "trailing": "1  # o", "across": "# one\nb"}
    monkeypatch.setattr(module, "MUTATIONS", [
        module.Mutation(name, "whittaker/x.py", anchor, "", ()) for name, anchor in anchors.items()])
    assert module.anchor_problems(tmp_path) == [
        f"{name}: anchor overlaps a comment in whittaker/x.py" for name in ("trailing", "across")]


def test_a_mutation_naming_a_missing_test_file_is_reported(monkeypatch, tmp_path):
    # a mutant run against a test file that does not exist would fail its
    # unmutated baseline only after minutes; the anchor check names it
    module = _load("mutation_check")
    (tmp_path / "whittaker").mkdir()
    (tmp_path / "whittaker" / "x.py").write_text("a = 1\n", encoding="utf-8")
    monkeypatch.setattr(module, "MUTATIONS", [
        module.Mutation("present", "whittaker/x.py", "a = 1", "a = 2", ("tests/test_scripts.py",)),
        module.Mutation("missing", "whittaker/x.py", "a = 1", "a = 3",
                        ("tests/test_scripts.py", "tests/test_no_such_file.py"))])
    assert module.anchor_problems(tmp_path) == [
        "missing: no test file tests/test_no_such_file.py"]


def test_every_mutation_anchor_occurs_once_in_src():
    # scripts/mutation_check.py runs outside tier-1; its anchors must keep
    # matching the code, and lie in code, or a mutant would silently test
    # nothing
    module = _load("mutation_check")
    assert module.MUTATIONS
    assert module.anchor_problems() == []
