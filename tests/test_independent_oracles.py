"""Oracles for both sides of the Cauchy identity that share no engine code.

Every check in the library, and most oracles in the other test files,
runs symfunc's Schur-table fill or packing's product kernel.  The two
oracles here use neither:

- the plain-Fraction product of the r*m geometric series 1/(1 - c t),
  against the series of a rational verify_essential or cauchy_check;
- for distinct atoms x, y, the x^a y^b coefficient of the t^k coefficient
  of prod (1 - x_i y_j t)^-1 counts the nonnegative integer matrices with
  row sums a and column sums b (by RSK also sum_lam K_(lam,a) K_(lam,b),
  Macdonald I.(4.3'); Knuth 1970), against a symbolic cauchy_check and
  verify_essential, read through iter_terms().
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whittaker.repdata import UnramifiedLanglandsRep, parse_rep
from whittaker.ringcore import EulerFactor, Scalar, euler_expand
from whittaker.rseng import cauchy_check, l_factor, verify_essential


def _rep_with_tops(tops, n):
    """A rep of GL(n) whose unramified tops are the given atoms, one segment each."""
    segments = [{"kind": "unramified", "satake": str(x), "length": 1} for x in tops]
    if len(tops) < n:
        segments.append({"kind": "ramified", "id": "rho1", "degree": n - len(tops),
                         "length": 1})
    return parse_rep({"q": "symbolic", "segments": segments})


# --- the geometric-series product in plain Fractions ------------------------------------

def _geometric_product(roots, order):
    """The t^0..t^order coefficients of prod 1/(1 - c t) over roots, in Fractions."""
    coeffs = [Fraction(1)] + [Fraction(0)] * order
    for c in roots:
        powers = [c ** j for j in range(order + 1)]
        coeffs = [sum(coeffs[i] * powers[k - i] for i in range(k + 1)) for k in range(order + 1)]
    return coeffs


_FRACTIONS = st.one_of(
    st.integers(-9, 9).filter(bool).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
    st.builds(Fraction, st.integers(-999, 999).filter(bool), st.integers(10 ** 6, 10 ** 9)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rational_series_are_the_product_of_geometric_series(data):
    pool = data.draw(st.lists(_FRACTIONS, min_size=1, max_size=3), label="pool")
    value = st.sampled_from(pool)
    n = data.draw(st.integers(2, 4))
    r, m = data.draw(st.integers(0, n)), data.draw(st.integers(1, n - 1))
    order = data.draw(st.integers(0, 6))
    tops = [data.draw(value) for _ in range(r)]
    satake = [data.draw(value) for _ in range(m)]
    report = verify_essential(_rep_with_tops(tops, n), UnramifiedLanglandsRep(satake), order)
    expected = _geometric_product([x * y for x in tops for y in satake], order)
    assert report.passed
    assert [c.as_fraction() for c in report.lhs_series.coeffs] == expected
    assert [c.as_fraction() for c in report.rhs_series.coeffs] == expected
    xs = [data.draw(value) for _ in range(n)]
    report = cauchy_check(n, m, xs, satake, order)
    expected = _geometric_product([x * y for x in xs for y in satake], order)
    assert report.passed
    assert [c.as_fraction() for c in report.lhs_series.coeffs] == expected


# --- contingency tables -------------------------------------------------------------------

def _compositions(total, parts):
    """Every tuple of parts nonnegative ints with the given sum."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _left_after_row(total, cols):
    """cols - v for every v with 0 <= v <= cols entrywise and sum(v) = total."""
    if not cols:
        if not total:
            yield ()
        return
    for v in range(min(total, cols[0]) + 1):
        for rest in _left_after_row(total - v, cols[1:]):
            yield (cols[0] - v,) + rest


def _table_count(rows, cols):
    """The number of nonnegative integer matrices with row sums rows and column sums cols."""

    @lru_cache(maxsize=None)
    def count(i, cols):
        if i == len(rows):
            return int(not any(cols))
        return sum(count(i + 1, left) for left in _left_after_row(rows[i], cols))

    return count(0, tuple(cols))


def _assert_counts_tables(coeffs, n, m):
    for k, coeff in enumerate(coeffs):
        got = {}
        for mono, c in coeff.iter_terms():
            exps = dict(mono)
            a = tuple(exps.pop(f"x{i + 1}", 0) for i in range(n))
            b = tuple(exps.pop(f"y{j + 1}", 0) for j in range(m))
            assert not exps, mono
            got[a, b] = c
        expected = {(a, b): _table_count(a, b)
                    for a in _compositions(k, n) for b in _compositions(k, m)}
        assert got == expected, k


@pytest.mark.parametrize("n,m,k", [(2, 2, 3), (3, 2, 4), (3, 3, 4), (4, 3, 3)])
def test_symbolic_cauchy_coefficients_count_contingency_tables(n, m, k):
    xs = [Scalar.variable(f"x{i + 1}") for i in range(n)]
    ys = [Scalar.variable(f"y{j + 1}") for j in range(m)]
    report = cauchy_check(n, m, xs, ys, k)
    assert report.passed
    _assert_counts_tables(report.lhs_series.coeffs, n, m)
    # the Euler side, expanded on its own rather than taken from the report
    factor = EulerFactor([x * y for x in xs for y in ys])
    _assert_counts_tables(euler_expand(factor, k).coeffs, n, m)


def test_symbolic_verify_coefficients_count_contingency_tables():
    # r = 3 tops x1..x3 of a GL(4) rep against m = 2 Satake values y1, y2
    rep = _rep_with_tops(["x1", "x2", "x3"], 4)
    pi_prime = UnramifiedLanglandsRep((Scalar.variable("y1"), Scalar.variable("y2")))
    report = verify_essential(rep, pi_prime, 4)
    assert report.passed
    _assert_counts_tables(report.lhs_series.coeffs, 3, 2)
    _assert_counts_tables(euler_expand(l_factor(rep, pi_prime), 4).coeffs, 3, 2)
