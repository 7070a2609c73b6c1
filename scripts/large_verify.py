#!/usr/bin/env python3
"""Run the large symbolic verify on two src/ trees in alternating fresh processes.

For the shape (n, r, m), each run is

    python3 -m whittaker.cli verify --rep REP --satake-prime bp1,...,bpm --degree 8

in a fresh process with PYTHONPATH set to one side's src/ directory and
stdout written to a file. REP is a symbolic-q representation of GL(n) with
unramified rank r. Each pair runs both sides, the parent first in even
pairs and the change first in odd ones. One JSON object is printed: for
each side, every run's exit code, wall time, peak resident size (the
child's ru_maxrss, in MB of 1024 KB) and the bytes and sha256 of what it
printed.

    python3 scripts/large_verify.py PARENT_SRC CHANGE_SRC [--pairs N] [--shape n,r,m]
                                    [--stages]

--stages adds two in-process runs per side, each in its own fresh child
process that imports that side's src/, of three stages of the same
verify: verify_essential, write_summary to /dev/null, and cli._spot_check.
The first run times each stage untraced (wall_s), so that no stage finds
tables or caches warm from another run and its times compare with
fresh-process runs. The second runs under tracemalloc and records each
stage's wall time (traced_wall_s, slowed by the tracing) and its peak
above what was traced when the stage began (traced_peak_mb), so the
report that the last two stages read is not in it.

Exit 0 when every run exits 0 and prints the same bytes, and a shape with
recorded output prints exactly that; 1 otherwise; 2 on bad arguments. The
(6, 5, 5) and (6, 4, 5) representations are the ones the perfbench
workload generator gives for those shapes at token "p" and random seed 3;
any other shape uses r unramified segments ap1..apr of length one and,
when r < n, one ramified segment of degree n - r. Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def _unramified(*order):
    return [{"kind": "unramified", "satake": f"ap{i}", "length": 1} for i in order]


REPS = {
    (6, 5, 5): [{"kind": "ramified", "id": "rho1", "degree": 1, "length": 1},
                *_unramified(4, 1, 2, 5, 3)],
    (6, 4, 5): [*_unramified(4, 3, 2, 1),
                {"kind": "ramified", "id": "rho1", "degree": 2, "length": 1}],
}

# (bytes, sha256) of the verify output of a known shape
DIGESTS = {
    (6, 5, 5): (32216868, "8beb6017a0095e70bdf816c7aa0d16d88a9dd8470fdfd38e8e6bf8c289a5bd1b"),
    (6, 4, 5): (10817143, "81d4d0607fffea0efd05f2cd44feebb291b2d989de38a687ff8e43c8b0d2094e"),
}


def _rep(shape) -> dict:
    n, r, _ = shape
    segments = REPS.get(shape)
    if segments is None:
        segments = _unramified(*range(1, r + 1))
        if r < n:
            segments.append({"kind": "ramified", "id": "rho1", "degree": n - r, "length": 1})
    return {"q": "symbolic", "segments": segments}


def _satake_prime(m: int) -> str:
    return ",".join(f"bp{j + 1}" for j in range(m))


def _run(src: Path, rep: Path, m: int, out: Path) -> dict:
    """One fresh-process verify against src: its exit code, wall time, peak and output."""
    argv = [sys.executable, "-m", "whittaker.cli", "verify", "--rep", str(rep),
            "--satake-prime", _satake_prime(m), "--degree", "8"]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    with open(out, "wb") as sink:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=sink, stderr=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    digest = hashlib.sha256()
    with open(out, "rb") as printed:
        for block in iter(lambda: printed.read(1 << 20), b""):
            digest.update(block)
    return {"exit": child.returncode, "wall_s": round(wall, 4),
            "maxrss_mb": round(usage.ru_maxrss / 1024, 2),
            "bytes": out.stat().st_size, "sha256": digest.hexdigest()}


def stages(rep_path: str, m: int, traced: bool) -> dict:
    """The wall time of each stage of one verify, in this process, and when
    traced its tracemalloc peak too; run in a child whose path holds one
    side's src/."""
    import tracemalloc

    from whittaker import cli
    from whittaker.repdata import UnramifiedLanglandsRep, compute_piu

    rep = cli._load_rep(rep_path)
    pi_prime = UnramifiedLanglandsRep(cli._parse_atom_list(_satake_prime(m)))
    figures = {}

    def stage(name, call):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        start = time.perf_counter()
        value = call()
        figures[name] = {"wall_s": round(time.perf_counter() - start, 4)}
        if traced:
            peak = tracemalloc.get_traced_memory()[1] - held
            figures[name]["traced_peak_mb"] = round(peak / 2 ** 20, 2)
        return value

    if traced:
        tracemalloc.start()
    report = stage("verify_essential", lambda: cli.verify_essential(rep, pi_prime, 8))
    with open(os.devnull, "w", encoding="utf-8") as sink:
        stage("write_summary", lambda: report.write_summary(sink.write))
    stage("spot_check", lambda: cli._spot_check(report, 0, compute_piu(rep)[1], pi_prime.satake))
    tracemalloc.stop()
    return figures


def _stages_of(src: Path, rep: Path, m: int) -> dict:
    """stages() run untraced and then traced, each in a fresh child process
    against src: per stage its untraced wall time, and its traced wall
    time and peak; or an "error" with a child's exit code and last line of
    stderr."""
    code = ("import json, sys, large_verify; print(json.dumps("
            "large_verify.stages(sys.argv[1], int(sys.argv[2]), sys.argv[3] == '1')))")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).resolve().parent)]))
    runs = []
    for traced in "01":
        done = subprocess.run([sys.executable, "-c", code, str(rep), str(m), traced], env=env,
                              capture_output=True, text=True)
        if done.returncode:
            return {"error": f"exit {done.returncode}: {(done.stderr.splitlines() or [''])[-1]}"}
        runs.append(json.loads(done.stdout))
    untraced, traced = runs
    return {name: {"wall_s": untraced[name]["wall_s"], "traced_wall_s": figures["wall_s"],
                   "traced_peak_mb": figures["traced_peak_mb"]}
            for name, figures in traced.items()}


def _shape(text: str) -> tuple:
    try:
        n, r, m = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected three integers n,r,m") from None
    if not (n >= 1 and 0 <= r <= n and m >= 1):
        raise argparse.ArgumentTypeError("expected n >= 1, 0 <= r <= n and m >= 1")
    return n, r, m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent's src/ directory")
    parser.add_argument("change", type=Path, help="the change's src/ directory")
    parser.add_argument("--pairs", type=int, default=1, help="alternating pairs (default 1)")
    parser.add_argument("--shape", type=_shape, default=(6, 5, 5),
                        help="n,r,m: GL(n), unramified rank r, m Satake parameters "
                             "(default 6,5,5)")
    parser.add_argument("--stages", action="store_true",
                        help="add two in-process runs per side, one timing and one "
                             "tracing verify_essential, write_summary and the spot-check")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for name, src in sides.items():
        if not (src / "whittaker" / "cli.py").is_file():
            parser.error(f"{name}: {src} holds no whittaker package")
    runs = {name: [] for name in sides}
    with tempfile.TemporaryDirectory(prefix="large-verify-") as tmp:
        rep, out = Path(tmp) / "rep.json", Path(tmp) / "out.txt"
        rep.write_text(json.dumps(_rep(args.shape)), encoding="utf-8")
        for pair in range(args.pairs):
            for name in (("parent", "change") if pair % 2 == 0 else ("change", "parent")):
                runs[name].append(_run(sides[name], rep, args.shape[2], out))
        staged = {name: _stages_of(src, rep, args.shape[2])
                  for name, src in sides.items()} if args.stages else {}
    printed = {(run["bytes"], run["sha256"]) for side in runs.values() for run in side}
    problems = [f"{name} run {i} exited {run['exit']}" for name, side in runs.items()
                for i, run in enumerate(side) if run["exit"]]
    problems += [f"{name} stages failed ({figures['error']})" for name, figures in staged.items()
                 if "error" in figures]
    if len(printed) > 1:
        problems.append("the runs printed different bytes")
    recorded = DIGESTS.get(args.shape)
    if recorded is not None and printed != {recorded}:
        problems.append("the output differs from the recorded digest")
    print(json.dumps({"shape": list(args.shape), "pairs": args.pairs,
                      "recorded": recorded and {"bytes": recorded[0], "sha256": recorded[1]},
                      **{name: {"src": str(sides[name]), "runs": side,
                                **({"stages": staged[name]} if name in staged else {})}
                         for name, side in runs.items()},
                      "problems": problems}, indent=1))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
