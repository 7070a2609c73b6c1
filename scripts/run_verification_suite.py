#!/usr/bin/env python3
"""Generate a suite of generic representations and verify the main identity.

For every generated representation of GL(n) (n <= 5, numeric q in {2,3,5},
mixed segment shapes, all unramified ranks 0..n) and every 1 <= m <= n-1,
expands I(W_ess, W'_0, s) as an exact series in t = q^(-s) and compares it
with the Euler-factor expansion of L(pi, pi', s), coefficient by
coefficient.

Usage:
  python scripts/run_verification_suite.py [--count 50] [--degree 8] [--seed 20260810]
"""

import argparse
import random
import sys
import time

from whittaker.repdata import compute_piu
from whittaker.rseng import verify_essential
from whittaker.suite import generate_suite, make_pi_prime, rep_coverage


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--degree", type=int, default=8)
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()
    if args.count < 1:
        parser.error("--count must be positive")
    if args.degree < 0:
        parser.error("--degree must be nonnegative")

    reps = generate_suite(args.count, args.seed)
    rng = random.Random(args.seed + 1)
    print(f"generated {len(reps)} representations; (n, r) coverage: "
          f"{sorted(rep_coverage(reps))}")

    failures = 0
    checks = 0
    start = time.perf_counter()
    for idx, rep in enumerate(reps):
        r, _ = compute_piu(rep)
        for m in range(1, rep.n):
            pi_prime = make_pi_prime(m, rng)
            report = verify_essential(rep, pi_prime, args.degree)
            checks += 1
            status = "pass" if report.passed else "FAIL"
            if args.verbose or not report.passed:
                roots = report.metadata["roots"]
                print(f"[{idx:3d}] n={rep.n} r={r} m={m} degree={args.degree} "
                      f"roots={roots}: {status}")
            if not report.passed:
                failures += 1
                k, lhs_c, rhs_c = report.first_mismatch
                print(f"      first mismatch at t^{k}: lhs={lhs_c} rhs={rhs_c}")
    elapsed = time.perf_counter() - start
    print(f"{checks} verifications in {elapsed:.1f}s, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
