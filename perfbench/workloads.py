"""The benchmark's workloads, each built from a seed as a list of checks.

A check is one exact verification: one ``rseng.cauchy_check``, one
``rseng.verify_essential``, or one in-process ``whittaker`` CLI invocation.
``run`` is the timed part; ``render`` turns its result into a pass flag and
the output bytes whose digest the byte-stability gate compares, and runs
outside the timed region for the library workloads.

Each workload function returns the checks of one round.  A run repeats the
same round, each time in a fresh process, so in-process caches never hand a
round work that a fresh process would have to redo; within a round, every
check uses indeterminate names that no earlier check used.  The seed changes names,
values and segment shapes.  See README.md for why each workload exists and
which layers it stresses.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

from whittaker import cli, rseng, suite
from whittaker.ringcore import Scalar

WORKLOADS = ("cauchy_sym", "suite_numeric", "cli_symbolic")

# Wall time of one round process (start, import, build and checks) on the
# baseline machine, in seconds; it turns --seconds into a fixed number of
# rounds, so both sides of a comparison run identical work (see rounds_for).
ROUND_SECONDS = {
    "cauchy_sym": 19.0,
    "suite_numeric": 3.5,
    "cli_symbolic": 5.5,
}

# (n, r, m) for the small symbolic `whittaker verify` invocations of a
# cli_symbolic round: every shape with n <= 5, m <= min(n - 1, 3) and
# 1 <= r * m <= 6.  Each takes under 0.2 s.  r = 0 is left out: its
# L-factor is 1 and the check measures only argument parsing.
CLI_VERIFY_SHAPES = tuple(
    (n, r, m)
    for n in range(2, 6) for r in range(1, n + 1) for m in range(1, min(n - 1, 3) + 1)
    if r * m <= 6)

# The large verify shapes, r * m = 8 or 9, including m = 4; each takes about
# half a second.  Multi-second checks such as n = 5, r = 3, m = 4 are left
# out: a single check that long spans several swings of a shared host's
# speed, so its best time over a run's rounds is not steady.
CLI_LARGE_SHAPES = ((5, 2, 4), (5, 3, 3), (5, 4, 2))


@dataclass
class Check:
    label: str
    run: Callable[[], object]
    render: Callable[[object], Tuple[bool, bytes]]


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


class _Names:
    """Indeterminate-name tokens, each used once per run."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._used = set()

    def token(self) -> str:
        while True:
            tok = "".join(self._rng.choice(string.ascii_lowercase) for _ in range(5))
            if tok not in self._used:
                self._used.add(tok)
                return tok


def _render_report(report) -> Tuple[bool, bytes]:
    return report.passed, "\n".join(report.summary_lines()).encode()


def cauchy_sym(seed: int, *, nmax: int = 4, degree: int = 8,
               probe: Tuple[int, int, int] = (3, 3, 12), repeats: int = 10) -> List[Check]:
    """Symbolic cauchy_check for every 1 <= m <= n <= nmax, plus a growth probe.

    Shapes with m <= 2 take under 0.5 s and run `repeats` times per sweep,
    each time with fresh names, so that the median and the tail fall inside
    a group of samples of one shape rather than on a single check.
    """
    names = _Names(random.Random(f"cauchy_sym:{seed}"))
    shapes = [(n, m, degree) for n in range(1, nmax + 1) for m in range(1, n + 1)]
    shapes.append(probe)
    checks = []
    for n, m, d in shapes:
        for k in range(repeats if m <= 2 else 1):
            tok = names.token()
            xs = tuple(Scalar.variable(f"x{tok}{i + 1}") for i in range(n))
            ys = tuple(Scalar.variable(f"y{tok}{j + 1}") for j in range(m))
            checks.append(Check(
                f"cauchy/{n}x{m}/d{d}/{k}",
                lambda n=n, m=m, xs=xs, ys=ys, d=d: rseng.cauchy_check(n, m, xs, ys, d),
                _render_report))
    return checks


def suite_numeric(seed: int, *, min_count: int = 72, degree: int = 12) -> List[Check]:
    """verify_essential over a generated suite, every 1 <= m <= n-1."""
    suite_seed = random.Random(f"suite_numeric:{seed}").getrandbits(32)
    reps = suite.generate_suite(min_count, suite_seed)
    prime_rng = random.Random(suite_seed + 1)
    checks = []
    for idx, rep in enumerate(reps):
        for m in range(1, rep.n):
            pi_prime = suite.make_pi_prime(m, prime_rng)
            checks.append(Check(
                f"suite/{idx}/m{m}",
                lambda rep=rep, pi_prime=pi_prime: rseng.verify_essential(rep, pi_prime, degree),
                _render_report))
    return checks


def _symbolic_rep(n: int, r: int, tok: str, rng: random.Random) -> dict:
    """A symbolic-q representation of GL(n) with unramified rank r.

    Tops are fresh indeterminates (always in generic position) and the
    ramified pieces carry distinct cuspidal ids, so the segments are
    pairwise unlinked.  Lengths and ramified shapes vary with the seed; the
    cost of a check depends only on n, r and m.
    """
    segments = []
    unram_total = n if r == n else (rng.randint(r, n) if r else 0)
    cuts = sorted(rng.sample(range(1, unram_total), r - 1)) if r > 1 else []
    bounds = [0] + cuts + [unram_total]
    for i in range(r):
        segments.append({"kind": "unramified", "satake": f"a{tok}{i + 1}",
                         "length": bounds[i + 1] - bounds[i]})
    remaining = n - unram_total
    piece = 1
    while remaining:
        d = rng.randint(1, remaining)
        shapes = [(d, 1), (1, d)] + ([(2, d // 2)] if d % 2 == 0 and d >= 4 else [])
        degree, length = rng.choice(shapes)
        segments.append({"kind": "ramified", "id": f"rho{piece}", "degree": degree,
                         "length": length})
        piece += 1
        remaining -= d
    rng.shuffle(segments)
    return {"q": "symbolic", "segments": segments}


def _invoke_cli(argv: Sequence[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _render_cli(result) -> Tuple[bool, bytes]:
    code, stdout = result
    return code == 0, stdout.encode()


def cli_symbolic(seed: int, workdir: Path, *,
                 shapes: Sequence[Tuple[int, int, int]] = CLI_VERIFY_SHAPES,
                 large_shapes: Sequence[Tuple[int, int, int]] = CLI_LARGE_SHAPES,
                 cauchy: Tuple[int, int] = (3, 3), degree: int = 8,
                 repeats: int = 2) -> List[Check]:
    """In-process `whittaker verify` on symbolic reps, plus one `whittaker cauchy`.

    `cauchy` names its indeterminates x1.., y1.., so it runs once per round:
    a second invocation in the process would be served from the caches the
    first one filled.  The small shapes run `repeats` times, each time on a
    fresh representation, so that the median and the tail, which needs ten
    checks above it, fall inside groups of small checks of nearly equal
    cost.  Representation files are written here, during set-up.
    """
    rng = random.Random(f"cli_symbolic:{seed}")
    names = _Names(rng)

    def verify(label, n, r, m):
        tok = names.token()
        path = workdir / f"rep-{tok}.json"
        path.write_text(json.dumps(_symbolic_rep(n, r, tok, rng)), encoding="utf-8")
        satake_prime = ",".join(f"b{tok}{j + 1}" for j in range(m))
        argv = ("verify", "--rep", str(path), "--satake-prime", satake_prime,
                "--degree", str(degree), "--seed", str(rng.randrange(1000)))
        return Check(f"{label}/cli/verify/{n}-{r}-{m}", lambda: _invoke_cli(argv), _render_cli)

    cauchy_argv = ("cauchy", "--n", str(cauchy[0]), "--m", str(cauchy[1]),
                   "--degree", str(degree), "--seed", str(rng.randrange(1000)))
    checks = [Check(f"cli/cauchy/{cauchy[0]}x{cauchy[1]}",
                    lambda: _invoke_cli(cauchy_argv), _render_cli),
              *(verify("large", n, r, m) for n, r, m in large_shapes)]
    checks.extend(verify(f"small{k}", n, r, m) for k in range(repeats) for n, r, m in shapes)
    return checks


def build(workload: str, seed: int, workdir: Path) -> List[Check]:
    """The checks of one round."""
    if workload == "cauchy_sym":
        return cauchy_sym(seed)
    if workload == "suite_numeric":
        return suite_numeric(seed)
    if workload == "cli_symbolic":
        return cli_symbolic(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
