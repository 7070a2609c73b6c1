"""The scripts under scripts/: bad arguments exit 2, tiny runs pass, mutation anchors match."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SUITE = ROOT / "scripts" / "run_verification_suite.py"
SWEEP = ROOT / "scripts" / "cauchy_sweep.py"


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


def test_every_mutation_anchor_occurs_once_in_src():
    # scripts/mutation_check.py runs outside tier-1; its anchors must keep
    # matching the code, or a mutant would silently test nothing
    spec = importlib.util.spec_from_file_location("mutation_check",
                                                  ROOT / "scripts" / "mutation_check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.MUTATIONS
    assert module.anchor_problems() == []
