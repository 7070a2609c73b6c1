#!/usr/bin/env python3
"""Mutation check: do the tier-1 tests catch fixed one-line faults in src/?

Each mutation replaces one exact piece of text (its anchor) in one file of
a copy of src/ made in a temporary directory; src/ itself is never
written.  For every mutant, the named tier-1 tests run against the copy
(PYTHONPATH points at it) under a timeout, and a mutant whose tests all
pass is reported as a survivor.  The unmutated copy runs every named test
first, so a failure there is not mistaken for a kill.

    python3 scripts/mutation_check.py [--timeout S] [NAME ...]

Names select mutations (default: all).  Exit 0 when every mutant is
killed, 1 when one survives, 2 when an anchor does not occur exactly once
in src/ or overlaps a comment, a named test file does not exist, or the
unmutated copy fails.  Stdlib only;
not part of tier-1, whose tests check only that every anchor occurs
exactly once, in code.
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

KERNEL_TESTS = ("tests/test_ringcore.py", "tests/test_symfunc.py", "tests/test_rseng.py")
IDENTITY_TESTS = ("tests/test_rseng.py", "tests/test_independent_oracles.py",
                  "tests/test_acceptance.py", "tests/test_golden_output.py")
CLI_TESTS = ("tests/test_cli.py", "tests/test_golden_output.py")


class Mutation(NamedTuple):
    name: str
    path: str          # relative to src/
    anchor: str        # exact text, once in all of src/
    replacement: str
    tests: Tuple[str, ...]


MUTATIONS = [
    # the kernel and the layouts (ROADMAP item 14's starting list)
    Mutation("finished-keeps-vanished-variables", "whittaker/packing.py",
             "if not (some >> s & mask) == half == (every >> s & mask))", "if True)",
             KERNEL_TESTS),
    Mutation("finished-skips-canon", "whittaker/packing.py",
             "terms[k] = _canon(c)\n", "pass\n", KERNEL_TESTS),
    Mutation("lattice-width-of-one-tuple", "whittaker/symfunc.py",
             "2 * max(order, 1))", "max(order, 1))", KERNEL_TESTS),
    # the one ring chooser: a rational pair's int ring at the scale of its
    # first tuple, not at the product of the two tuples' scales
    Mutation("ring-at-the-first-tuple-scale", "whittaker/symfunc.py",
             "prod(d for d, _ in scaled)", "scaled[0][0]", KERNEL_TESTS),
    # _repack's key of each variable to the power 1 in dst: built at the
    # source width, or at the variable's field in src
    Mutation("repack-ignores-target-width", "whittaker/packing.py",
             "unit = {i: (1 << w * m) + (1 << w * (m - 1 - dst[v]))",
             "unit = {i: (1 << w_src * m) + (1 << w_src * (m - 1 - dst[v]))",
             KERNEL_TESTS),
    Mutation("repack-misplaces-a-field", "whittaker/packing.py",
             "(m - 1 - dst[v])", "(m - 1 - i)", KERNEL_TESTS),
    # the key reader numbers its fields from the low end of the key
    Mutation("fields-numbers-from-the-wrong-end", "whittaker/packing.py",
             "yield n - 1 - s // w, ", "yield s // w, ", KERNEL_TESTS),
    # the union alphabet sorted by plain name order, so u no longer comes first
    Mutation("aligned-names-in-plain-order", "whittaker/packing.py",
             "sorted({x for v in values for x in v.names}, key=_var_key)",
             "sorted({x for v in values for x in v.names})", KERNEL_TESTS + CLI_TESTS),
    Mutation("aligned-without-degree", "whittaker/packing.py",
             "bound = max((v.bound for v in values), default=0) * degree",
             "bound = max((v.bound for v in values), default=0)", KERNEL_TESTS),
    Mutation("kernel-keeps-cancelled-keys", "whittaker/packing.py",
             "del out[m]", "out[m] = s", KERNEL_TESTS),
    # the n-ary sum started from an empty map, so the largest value is lost
    Mutation("sum-drops-the-largest-map", "whittaker/ringcore.py",
             "out = dict(largest)", "out = {}", KERNEL_TESTS),
    # a product's bound taken from the factor of more terms alone, which
    # may hold the smaller exponents
    Mutation("mul-bound-of-the-larger", "whittaker/ringcore.py",
             "small.bound + big.bound", "big.bound", KERNEL_TESTS),
    Mutation("delta-half-sign", "whittaker/whitfun.py",
             "return -sum(x * (rank - 1 - 2 * i)", "return sum(x * (rank - 1 - 2 * i)",
             ("tests/test_whitfun.py", "tests/test_rseng.py")),
    # the one Cauchy decision (symfunc._cauchy_decision) and its readers:
    # the comparison forced true on each of its two routes, the int
    # lattice's raw sums against the Euler side, and the per-check
    # comparison of the value-free matrices M and N
    Mutation("holds-forced-true-ints", "whittaker/symfunc.py",
             "None if sums == euler else euler",
             "None if sums == euler or ring[1] is None else euler", IDENTITY_TESTS),
    Mutation("orbit-verdict-forced-true", "whittaker/symfunc.py",
             "None if ms == ns else", "None if True else", IDENTITY_TESTS),
    Mutation("sums-scaled-by-s-to-the-k-plus-one", "whittaker/symfunc.py",
             "_read(ring, sums, sizes)",
             "_read(ring, sums, range(1, order + 2))", IDENTITY_TESTS),
    Mutation("int-slice-drops-a-term", "whittaker/symfunc.py",
             "sum(map(mul, u[a:b], v[a:b]))", "sum(map(mul, u[a + 1:b], v[a + 1:b]))",
             IDENTITY_TESTS),
    # the orbit route (symfunc._orbit_matrices, orbits): the top degree's
    # first canonical Kostka product one more; the one canonical table
    # filled over the partitions of one part fewer than the shorter side
    # allows; a Kostka number read at a key with one exponent moved from
    # the first atom to the last, out of its orbit; the matrices
    # transposed, which shows only when the tuples differ in length; the
    # expansion without the last composition of each degree, or with each
    # y-side monomial sum m_j read at the next orbit
    Mutation("canonical-kostka-entry-off-by-one", "whittaker/symfunc.py",
             "orbits.kostka_products(ideal[1], _fill(points, ideal, ring), units, shapes)",
             "(lambda ms: (*ms[:-1], ((ms[-1][0][0] + 1, *ms[-1][0][1:]), *ms[-1][1:])))"
             "(orbits.kostka_products(ideal[1], _fill(points, ideal, ring), units, shapes))",
             IDENTITY_TESTS),
    Mutation("canonical-table-one-part-short", "whittaker/symfunc.py",
             "_order_ideal((order,) * m, order)", "_order_ideal((order,) * (m - 1), order)",
             IDENTITY_TESTS),
    Mutation("kostka-read-outside-its-orbit", "whittaker/orbits.py",
             "sum(map(mul, alpha, units))", "sum(map(mul, alpha, units)) + units[-1] - units[0]",
             IDENTITY_TESTS),
    Mutation("orbit-matrix-transposed", "whittaker/orbits.py",
             "tuple(tuple(sum(map(mul, p, q)) for q in ky) for p in kx)",
             "tuple(tuple(sum(map(mul, p, q)) for p in kx) for q in ky)", IDENTITY_TESTS),
    Mutation("expansion-skips-a-composition", "whittaker/orbits.py",
             "compositions(powers, product, one, order)",
             "[level[:-1] for level in compositions(powers, product, one, order)]",
             IDENTITY_TESTS),
    Mutation("expansion-y-sum-at-the-wrong-orbit", "whittaker/orbits.py",
             "zip(row, my)", "zip(row, my[1:] + my[:1])", IDENTITY_TESTS),
    # a passing report of distinct atoms printed from its orbit form
    # (orbits.Orbits.texts) with each y composition's text taken from the
    # next one, and spot-checked from that form (orbits.evaluated) with each
    # y orbit's value one more, or with the matrices read transposed, which
    # shows only when the tuples differ in length
    Mutation("orbit-printer-y-text-offset", "whittaker/orbits.py",
             "ys, block = yt[k], packing._BLOCK",
             "ys, block = yt[k][1:] + yt[k][:1], packing._BLOCK",
             IDENTITY_TESTS),
    Mutation("orbit-evaluator-y-value-offset", "whittaker/orbits.py",
             "sum(map(mul, row, my))", "sum(map(mul, row, [v + 1 for v in my]))", CLI_TESTS),
    Mutation("orbit-evaluator-matrix-transposed", "whittaker/orbits.py",
             "my)) for row in mk]", "my)) for row in zip(*mk)]", CLI_TESTS),
    # the spot-check's reading of that decision at a rational point
    # (symfunc._agrees_at)
    Mutation("spot-check-ignores-holds", "whittaker/symfunc.py",
             "holds = euler is None", "holds = True", CLI_TESTS),
    Mutation("spot-check-ignores-sums", "whittaker/symfunc.py",
             "return holds and agree", "return holds", CLI_TESTS),
    # running out of memory left to the last-resort handler (exit 3), or
    # reported while the frames still hold what filled memory
    Mutation("memory-error-not-caught", "whittaker/cli.py",
             "except MemoryError as exc:", "except OverflowError as exc:", CLI_TESTS),
    Mutation("memory-error-keeps-the-frames", "whittaker/cli.py",
             "exc.__traceback__ = None", "pass", CLI_TESTS),
    Mutation("spot-check-scale-off-by-one", "whittaker/symfunc.py",
             "num * scale ** k == c * den", "num * scale ** (k + 1) == c * den", CLI_TESTS),
    Mutation("roots-scaled-by-2s", "whittaker/symfunc.py",
             "_read(ring, roots, [1] * len(roots))",
             "_read((2 * ring[0], *ring[1:]), roots, [1] * len(roots))", IDENTITY_TESTS),
    Mutation("hook-unit-inverted", "whittaker/rseng.py",
             "unit = unit / v ** _NEGATIVE_DEPTH", "unit = unit * v ** _NEGATIVE_DEPTH",
             ("tests/test_rseng.py",)),
    # the shifted check's verdict taken from the ordinary decision through
    # order + shift, where the sides agree, in place of its Euler side
    Mutation("hook-trusts-holds", "whittaker/rseng.py",
             "rhs = (euler or lhs.coeffs)[:order + 1] if shift else euler", "rhs = euler",
             ("tests/test_rseng.py", "tests/test_cli.py")),
    # the reduction from the integral to the Cauchy sum (ROADMAP item 16)
    Mutation("hook-depth-3", "whittaker/rseng.py",
             "_NEGATIVE_DEPTH = 2", "_NEGATIVE_DEPTH = 3", IDENTITY_TESTS),
    Mutation("hook-shifts-at-m-below-r", "whittaker/rseng.py",
             "_NEGATIVE_DEPTH * m if drop_integrality and m == r else 0",
             "_NEGATIVE_DEPTH * m if drop_integrality and m <= r else 0", IDENTITY_TESTS),
    # the one rank rule (rseng._pairing): a ramified left argument let
    # through at equal rank
    Mutation("equal-rank-ramified-allowed", "whittaker/rseng.py",
             "if m == n and r != n:", "if False:", IDENTITY_TESTS),
    Mutation("first-unramified-top-dropped", "whittaker/repdata.py",
             'tops = tuple(s.top.value for s in segments if s.kind == "unramified")',
             'tops = tuple(s.top.value for s in segments if s.kind == "unramified")[1:]',
             IDENTITY_TESTS),
    # printing: a passing report's rhs line formatted a second time (same
    # bytes, twice the text in memory)
    Mutation("rhs-formatted-again", "whittaker/rseng.py",
             "rhs = lhs if mismatch is None else self.rhs_series.text_pieces()",
             "rhs = self.rhs_series.text_pieces()", ("tests/test_rseng.py",)),
    # the verdict read off the two series: no report ever mismatches
    Mutation("verdict-skips-the-comparison", "whittaker/rseng.py",
             "if self.rhs_series is not self.lhs_series:", "if False:",
             ("tests/test_rseng.py", "tests/test_cli.py")),
    # the blocks of the text and evaluation kernels: a cut that skips the
    # first key of the next slice
    Mutation("text-block-seam", "whittaker/packing.py",
             "start += _BLOCK\n", "start += _BLOCK + 1\n", KERNEL_TESTS),
    # the half fold of _columns: a half's value read from its first field
    # only, so keys that differ in a later field of the half share its items
    Mutation("columns-half-of-its-first-field", "whittaker/packing.py",
             "run = sum(mask << shifts[i] for i in half)",
             "run = sum(mask << shifts[i] for i in half[:1])", KERNEL_TESTS),
    # the evaluation kernel: each block's sum over its own denominator, the
    # blocks joined over the lcm of those denominators
    Mutation("evaluate-drops-block-rebase", "whittaker/packing.py",
             "nums[i] += s * (den // den_b)", "nums[i] += s", KERNEL_TESTS),
    Mutation("evaluate-den-not-a-common-multiple", "whittaker/packing.py",
             "den = lcm(*[den_b for _, _, den_b in sums])",
             "den = max([den_b for _, _, den_b in sums], default=1)", KERNEL_TESTS),
    # a batch with no variable folds no column, and a list of coefficients
    # read piece by piece must be one iterator
    Mutation("evaluate-pieces-share-a-start", "whittaker/packing.py",
             "_columns(keys, n, w, factors, mul), iter(total))",
             "_columns(keys, n, w, factors, mul), total)", KERNEL_TESTS),
    # the Schur tables (symfunc._fill): a single value read out as one of
    # the next degree, and the one-row table of h_k filled without its
    # first point
    Mutation("schur-read-at-the-wrong-degree", "whittaker/symfunc.py",
             "_read(ring, [value], [sum(parts)])", "_read(ring, [value], [sum(parts) + 1])",
             KERNEL_TESTS),
    Mutation("h-values-drops-a-point", "whittaker/symfunc.py",
             "_fill(points, _order_ideal((order,), order), ring)",
             "_fill(points[1:], _order_ideal((order,), order), ring)",
             KERNEL_TESTS),
    # a single Schur value read from the first state of its ideal, the empty
    # partition, in place of the last, the shape itself
    Mutation("schur-reads-the-first-state", "whittaker/symfunc.py",
             "_order_ideal(parts, sum(parts)), ring, parts)[-1]",
             "_order_ideal(parts, sum(parts)), ring, parts)[0]", KERNEL_TESTS),
    # the bialternant's long division: a quotient key with an exponent of -1
    Mutation("exact-div-skips-exactness", "whittaker/symfunc.py",
             "if any(e < 0 for _, e in _fields(key, n, w)):",
             "if any(e < -1 for _, e in _fields(key, n, w)):",
             KERNEL_TESTS),
    # the alternants of the bialternant with every permutation's sign +1
    Mutation("alternant-without-signs", "whittaker/symfunc.py",
             "for p, e in zip(perm, exps)}, _perm_sign(perm))",
             "for p, e in zip(perm, exps)}, 1)", KERNEL_TESTS),
    # the print order: each degree's run of keys left ascending
    Mutation("print-order-ascending", "whittaker/ringcore.py",
             "keys[start:end] = keys[start:end][::-1]", "pass", CLI_TESTS),
    # Euler factors compared as sets, so multiplicities are lost
    Mutation("euler-roots-as-a-set", "whittaker/ringcore.py",
             "Counter(self.roots) == Counter(other.roots)",
             "set(self.roots) == set(other.roots)", KERNEL_TESTS),
]


def _comments(text: str) -> list:
    """The (start, end) character offsets of every comment in Python source text."""
    starts = [0]
    for line in io.StringIO(text).readlines():
        starts.append(starts[-1] + len(line))
    return [(starts[a[0] - 1] + a[1], starts[b[0] - 1] + b[1])
            for kind, _, a, b, _ in tokenize.generate_tokens(io.StringIO(text).readline)
            if kind == tokenize.COMMENT]


def anchor_problems(src: Path = SRC) -> list:
    """One line per mutation whose anchor does not occur exactly once in src/,
    or overlaps a comment there, or whose named test file does not exist: a
    mutant must change code, found by code, and be run against tests."""
    texts = {p: p.read_text(encoding="utf-8") for p in src.rglob("*.py")}
    problems = []
    for m in MUTATIONS:
        total = sum(text.count(m.anchor) for text in texts.values())
        text = texts.get(src / m.path, "")
        if total != 1 or m.anchor not in text:
            problems.append(f"{m.name}: anchor occurs {total} times in src/, "
                            f"expected once in {m.path}")
        else:
            start = text.index(m.anchor)
            if any(a < start + len(m.anchor) and start < b for a, b in _comments(text)):
                problems.append(f"{m.name}: anchor overlaps a comment in {m.path}")
        if m.replacement == m.anchor:
            problems.append(f"{m.name}: the replacement equals the anchor")
        for test in m.tests:
            if not (ROOT / test).is_file():
                problems.append(f"{m.name}: no test file {test}")
    return problems


def _run_tests(src: Path, tests, timeout: float) -> str:
    """'pass', 'timeout' or the first failure for the tests run against the code in src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            *(str(ROOT / t) for t in tests)]
    try:
        # run from the temporary directory, so that Hypothesis keeps the
        # mutants' failing examples there and never replays them on src/
        done = subprocess.run(argv, cwd=src.parent, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode == 0:
        return "pass"
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    if not failed:
        return f"exit {done.returncode}"
    # pytest names the test relative to the directory it ran from
    return failed[0].split(" - ")[0].replace(os.path.relpath(ROOT, src.parent) + os.sep, "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="seconds allowed for one mutant's tests (default 300)")
    parser.add_argument("names", nargs="*", help="mutations to run (default: all)")
    args = parser.parse_args(argv)
    known = {m.name for m in MUTATIONS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutation(s): {', '.join(unknown)}")
    problems = anchor_problems()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    chosen = [m for m in MUTATIONS if not args.names or m.name in args.names]
    with tempfile.TemporaryDirectory(prefix="mutation-check-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        every_test = sorted({t for m in chosen for t in m.tests})
        baseline = _run_tests(copy, every_test, args.timeout)
        if baseline != "pass":
            print(f"the unmutated copy does not pass ({baseline}): {' '.join(every_test)}",
                  file=sys.stderr)
            return 2
        survivors = []
        for m in chosen:
            target = copy / m.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(m.anchor, m.replacement), encoding="utf-8")
            try:
                outcome = _run_tests(copy, m.tests, args.timeout)
            finally:
                target.write_text(original, encoding="utf-8")
            verdict = "SURVIVED" if outcome == "pass" else f"killed: {outcome}"
            print(f"{m.name}: {verdict}", flush=True)
            if outcome == "pass":
                survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed; "
          f"survivors: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
