"""Acceptance criteria, one test per criterion, exact comparisons throughout.

Every identity is checked with zero tolerance: both sides are exact
elements of the fraction field of Laurent polynomials over Q, so a single
coefficient mismatch fails the criterion.  Each test prints one pass/fail
line (run with -s to see them alongside the pytest report).
"""

import functools
import json
import random
import time

import pytest

from whittaker.cli import main as cli_main
from whittaker.repdata import UnramifiedLanglandsRep, compute_piu, parse_rep
from whittaker.ringcore import Scalar
from whittaker.rseng import cauchy_check, l_factor, rs_series, theorem_product, verify_essential
from whittaker.suite import generate_suite, make_pi_prime, rep_coverage
from whittaker.symfunc import partitions_up_to, schur, schur_ssyt_oracle
from whittaker.whitfun import beta_to_diag, essential_value, essential_value_beta, spherical_value

DEGREE = 8


def criterion(number, name, budget=None):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({name}): FAIL")
                raise
            elapsed = time.perf_counter() - start
            if budget is not None:
                assert elapsed < budget, \
                    f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
            print(f"criterion {number} ({name}): PASS [{elapsed:.1f}s]")
        return run
    return wrap


@pytest.fixture(scope="module")
def suite():
    reps = generate_suite(50)
    assert len(reps) >= 50
    return reps


@criterion(1, "unramified test functions, symbolic Cauchy pairing", budget=60)
def test_criterion_1_unramified_pairing():
    for n in range(1, 5):
        xs = [Scalar.variable(f"x{i + 1}") for i in range(n)]
        for m in range(1, n + 1):
            ys = [Scalar.variable(f"y{j + 1}") for j in range(m)]
            report = cauchy_check(n, m, xs, ys, DEGREE)
            assert report.passed, f"mismatch for n={n}, m={m}: {report.first_mismatch}"


@criterion(2, "main identity over the generated suite", budget=120)
def test_criterion_2_main_identity(suite):
    coverage = rep_coverage(suite)
    assert {(n, r) for n in range(2, 6) for r in range(n + 1)} <= coverage
    assert {str(rep.q) for rep in suite} == {"2", "3", "5"}
    rng = random.Random(2026)
    for rep in suite:
        for m in range(1, rep.n):
            pi_prime = make_pi_prime(m, rng)
            report = verify_essential(rep, pi_prime, DEGREE)
            assert report.passed, \
                f"mismatch for {rep}, m={m}: {report.first_mismatch}"


@criterion(3, "torus formula consistency across coordinate systems")
def test_criterion_3_coordinate_consistency(suite):
    rng = random.Random(31)
    for rep in suite:
        r, params = compute_piu(rep)
        m = rep.n - 1
        for _ in range(100):
            z = tuple(rng.randint(-3, 4) for _ in range(m))
            if r <= rep.n - 1:
                assert essential_value_beta(rep, z) \
                    == essential_value(rep, beta_to_diag(z)), (rep, z)
            else:
                weight = beta_to_diag(z)
                assert essential_value(rep, weight) \
                    == spherical_value(params, weight + (0,)), (rep, z)


@criterion(4, "L-factor algebra: pairwise product vs theorem product")
def test_criterion_4_l_factor_algebra(suite):
    rng = random.Random(47)
    for rep in suite:
        r, _ = compute_piu(rep)
        for m in range(1, rep.n):
            pi_prime = make_pi_prime(m, rng)
            factor = l_factor(rep, pi_prime)
            assert factor == theorem_product(rep, pi_prime.satake)
            assert factor.degree() == r * m


@criterion(5, "Schur triple oracle", budget=10)
def test_criterion_5_schur_triple_oracle():
    for nvars in range(1, 5):
        variables = [Scalar.variable(f"x{i + 1}") for i in range(nvars)]
        for shape in partitions_up_to(6, 6):
            br = schur(shape, variables, "branching")
            jt = schur(shape, variables, "jacobi-trudi")
            bi = schur(shape, variables, "bialternant")
            tab = schur_ssyt_oracle(shape, variables)
            assert br == jt == bi == tab, f"disagreement at {shape} with {nvars} variables"


@criterion(6, "negative control: lattice indicator removal must fail")
def test_criterion_6_negative_control(tmp_path):
    config = {"q": "3", "segments": [
        {"kind": "unramified", "satake": "2", "length": 2},
        {"kind": "unramified", "satake": "5", "length": 1}]}
    rep = parse_rep(config)
    pi_prime = UnramifiedLanglandsRep((Scalar.of(7), Scalar.rational(1, 11)))
    assert verify_essential(rep, pi_prime, DEGREE).passed
    broken = verify_essential(rep, pi_prime, DEGREE, drop_integrality=True)
    assert not broken.passed
    assert broken.first_mismatch is not None
    k, lhs_c, rhs_c = broken.first_mismatch
    assert lhs_c != rhs_c
    # the CLI surfaces the same failure as exit code 1
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(config))
    code = cli_main(["verify", "--rep", str(path), "--satake-prime", "7,1/11",
                     "--degree", str(DEGREE), "--drop-integrality-indicator"])
    assert code == 1


@criterion(7, "degenerate ranks: fully ramified and fully unramified")
def test_criterion_7_degenerate_cases(suite):
    rng = random.Random(53)
    one = Scalar.of(1)
    seen_r0 = seen_rn = 0
    for rep in suite:
        r, params = compute_piu(rep)
        if r == 0:
            seen_r0 += 1
            for m in range(1, rep.n):
                report = verify_essential(rep, make_pi_prime(m, rng), DEGREE)
                assert report.passed
                assert report.lhs_series.coeffs[0] == one
                assert all(c.is_zero() for c in report.lhs_series.coeffs[1:])
                assert report.rhs_series == report.lhs_series
        elif r == rep.n:
            seen_rn += 1
            spherical_rep = UnramifiedLanglandsRep(params)
            for m in range(1, rep.n + 1):
                pi_prime = make_pi_prime(m, rng)
                report = verify_essential(rep, pi_prime, DEGREE)
                assert report.passed
                # the essential side reduces to the spherical lattice sum
                assert report.lhs_series == rs_series(spherical_rep, pi_prime, DEGREE)
    assert seen_r0 >= 4 and seen_rn >= 4
