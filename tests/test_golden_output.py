"""Golden output: the exact stdout bytes of every subcommand, pinned.

The corpus runs each CLI subcommand on small inputs and prints a few
scalars and series directly.  Its output must equal tests/golden_output.txt
byte for byte, in this process and in fresh interpreters under different
hash seeds, so no change to the arithmetic or the printing can move a byte
unnoticed.

Regenerate the file only for a deliberate output change:
    PYTHONPATH=src python tests/test_golden_output.py > tests/golden_output.txt
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_output.txt"
SRC = HERE.parent / "src"

REPS = {
    "rank2.json": {"q": "3", "segments": [
        {"kind": "unramified", "satake": "2", "length": 2},
        {"kind": "unramified", "satake": "5", "length": 1}]},
    "steinberg.json": {"q": "3", "segments": [
        {"kind": "unramified", "satake": "1/2", "length": 2}]},
    "symbolic.json": {"q": "symbolic", "segments": [
        {"kind": "unramified", "satake": "a1", "length": 2},
        {"kind": "ramified", "id": "rho1", "degree": 2, "length": 1}]},
    "twotops.json": {"q": "symbolic", "segments": [
        {"kind": "unramified", "satake": "a1", "length": 1},
        {"kind": "unramified", "satake": "a2", "length": 1},
        {"kind": "ramified", "id": "rho1", "degree": 1, "length": 1}]},
}

INVOCATIONS = [
    ["schur", "--partition", "2,1", "--vars", "3"],
    ["schur", "--partition", "2,1", "--vars", "3", "--algorithm", "bialternant"],
    ["schur", "--partition", "2,2,1", "--vars", "3", "--algorithm", "jacobi-trudi"],
    ["spherical", "--satake", "1/2,3,-2/5", "--weight", "2,1,0"],
    ["spherical", "--satake", "z1,z2,z3", "--weight", "2,1,0"],
    ["essential", "--rep", "{symbolic.json}", "--weight", "2,0,0"],
    ["essential", "--rep", "{rank2.json}", "--weight", "3,1"],
    ["lfactor", "--rep", "{steinberg.json}", "--satake-prime", "w1,3/7", "--degree", "3"],
    ["derivatives", "--rep", "{rank2.json}", "--order", "1"],
    ["verify", "--rep", "{rank2.json}", "--satake-prime", "7,1/11", "--degree", "4"],
    ["verify", "--rep", "{symbolic.json}", "--satake-prime", "b1,b2", "--degree", "4",
     "--seed", "5"],
    ["cauchy", "--n", "2", "--m", "2"],
    ["verify", "--rep", "{rank2.json}", "--satake-prime", "7,1/11", "--degree", "4",
     "--drop-integrality-indicator"],
    ["verify", "--rep", "{twotops.json}", "--satake-prime", "b1,b2", "--degree", "4",
     "--drop-integrality-indicator"],
    ["verify", "--rep", "{symbolic.json}", "--satake-prime", "b1", "--degree", "4",
     "--drop-integrality-indicator"],
    ["verify", "--rep", "{rank2.json}", "--satake-prime", "b1,b2", "--degree", "4"],
    ["verify", "--rep", "{symbolic.json}", "--satake-prime", "7,1/11", "--degree", "4"],
    ["verify", "--rep", "{rank2.json}", "--satake-prime", "b1,b2", "--degree", "4",
     "--drop-integrality-indicator"],
]


def _scalar_lines():
    from whittaker.ringcore import EulerFactor, Scalar, euler_expand, u_power

    x1 = Scalar.variable("x1")
    x2 = Scalar.variable("x2")
    values = [
        Scalar.rational(-3, 2) * u_power(-2) * x1 + Scalar.rational(5, 7) * x2 ** -1,
        (u_power(1) - x1) ** 2 / (Scalar.rational(2, 3) * u_power(3) * x2),
        Scalar.rational(-1, 6) * x1 ** -3 * x2 ** 2 - Scalar.rational(9, 4),
        (x1 + Scalar.rational(1, 2) * u_power(-1)) ** 3,
    ]
    lines = [str(v) for v in values]
    factor = EulerFactor([Scalar.rational(1, 2) * u_power(-1), x1 * x2 ** -1])
    lines.append(str(factor))
    lines.append(str(euler_expand(factor, 3)))
    return lines


def corpus_output() -> str:
    """Every pinned output, in a fixed order, as one string."""
    from whittaker.cli import main

    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, document in REPS.items():
            path = Path(tmp) / name
            path.write_text(json.dumps(document), encoding="utf-8")
            paths[name] = str(path)
        for argv in INVOCATIONS:
            argv = [paths[a[1:-1]] if a.startswith("{") else a for a in argv]
            shown = [Path(a).name if a in paths.values() else a for a in argv]
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            out.write(f"$ whittaker {' '.join(shown)}\n")
            out.write(captured.getvalue())
            out.write(f"[exit {code}]\n")
    out.write("$ scalars\n")
    for line in _scalar_lines():
        out.write(line + "\n")
    return out.getvalue()


def _run_in_subprocess(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(Path(__file__).resolve())], env=env,
                          capture_output=True, timeout=60, check=True)
    return done.stdout.decode("utf-8")


def test_corpus_matches_golden_in_process():
    assert corpus_output() == GOLDEN.read_text(encoding="utf-8")


def test_corpus_matches_golden_across_hash_seeds():
    golden = GOLDEN.read_text(encoding="utf-8")
    for seed in ("0", "2024"):
        assert _run_in_subprocess(seed) == golden, f"PYTHONHASHSEED={seed}"


if __name__ == "__main__":
    sys.stdout.write(corpus_output())
