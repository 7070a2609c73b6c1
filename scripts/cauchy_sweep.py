#!/usr/bin/env python3
"""Sweep the unramified pairing identity over symbolic ranks.

Checks, fully symbolically, that the spherical-by-spherical lattice sum
matches the Euler product over all parameter pairs, for every
1 <= m <= n <= nmax at the requested truncation order, and that the t^k
coefficient of the lattice sum has C(k+n-1, n-1) * C(k+m-1, m-1) terms.
Prints the term count of the top coefficient; exits 1 on any failure.

Usage:
  python scripts/cauchy_sweep.py [--nmax 4] [--degree 8]
"""

import argparse
import sys
import time

from whittaker.ringcore import Scalar
from whittaker.rseng import cauchy_check, cauchy_term_count


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nmax", type=int, default=4)
    parser.add_argument("--degree", type=int, default=8)
    args = parser.parse_args()
    if args.nmax < 1:
        parser.error("--nmax must be positive")
    if args.degree < 0:
        parser.error("--degree must be nonnegative")

    failures = 0
    for n in range(1, args.nmax + 1):
        xs = [Scalar.variable(f"x{i + 1}") for i in range(n)]
        for m in range(1, n + 1):
            ys = [Scalar.variable(f"y{j + 1}") for j in range(m)]
            start = time.perf_counter()
            report = cauchy_check(n, m, xs, ys, args.degree)
            elapsed = time.perf_counter() - start
            status = "pass" if report.passed else "FAIL"
            top = len(report.lhs_series.coeffs[-1].terms)
            print(f"n={n} m={m} degree={args.degree}: {status} [{elapsed:.2f}s] "
                  f"top terms {top}")
            if not report.passed:
                failures += 1
                k, lhs_c, rhs_c = report.first_mismatch
                print(f"  first mismatch at t^{k}: lhs={lhs_c} rhs={rhs_c}")
            for k, coeff in enumerate(report.lhs_series.coeffs):
                expected = cauchy_term_count(n, m, k)
                if len(coeff.terms) != expected:
                    failures += 1
                    print(f"  t^{k} has {len(coeff.terms)} terms, expected {expected}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
