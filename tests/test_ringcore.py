"""Exact scalar, series and Euler-factor arithmetic."""

import operator
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from whittaker.errors import (
    DivisionByZero,
    InsufficientOrder,
    PoleAtPoint,
    UnboundVariable,
    Unsupported,
)
from whittaker.ringcore import (
    EulerFactor,
    Scalar,
    TruncatedSeries,
    _exact_div,
    euler_expand,
    series_equal,
    substitute,
    u_power,
)
from whittaker.symfunc import complete_homogeneous

u = Scalar.variable("u")
x1 = Scalar.variable("x1")
x2 = Scalar.variable("x2")


# --- independent oracles ----------------------------------------------------

def _divide_univariate(num, den):
    """Long division of univariate coefficient lists (index = power); exact."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while den and den[-1] == 0:
        den.pop()
    quot = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        quot[k] = c
        for i, d in enumerate(den):
            num[k + i] -= c * d
    assert all(c == 0 for c in num), "inexact division"
    return quot


def _poly_from_u_coeffs(coeffs):
    acc = Scalar.of(0)
    for k, c in enumerate(coeffs):
        acc = acc + Scalar.of(Fraction(c)) * u ** k
    return acc


def _series_mul_bruteforce(a_coeffs, b_coeffs, order):
    out = []
    for k in range(order + 1):
        acc = Scalar.of(0)
        for i in range(k + 1):
            if i < len(a_coeffs) and k - i < len(b_coeffs):
                acc = acc + a_coeffs[i] * b_coeffs[k - i]
        out.append(acc)
    return out


# --- scalar arithmetic examples ---------------------------------------------

def test_scalar_mul_u_squared():
    assert u * u == u_power(2)


def test_scalar_sub_cancels():
    assert (x1 + x2) - x2 == x1


def test_scalar_reduction_matches_long_division():
    # _exact_div, which the bialternant Schur algorithm divides with, must
    # return the long-division quotient; (1 - u^2)/(1 - u) = 1 + u
    assert _poly_from_u_coeffs(_divide_univariate([1, 0, -1], [1, -1])) == 1 + u
    for num, den in (([1, 0, -1], [1, -1]), ([2, -3, 0, 1], [1, -1]),
                     ([-1, 0, 0, 0, 1], [1, 0, 1])):
        expected = _poly_from_u_coeffs(_divide_univariate(num, den))
        assert _exact_div(_poly_from_u_coeffs(num), _poly_from_u_coeffs(den)) == expected


def test_power_squares_only_while_bits_remain(monkeypatch):
    # binary powering needs floor(log2 k) squarings plus one product per
    # further set bit of k; p ** 1 multiplies nothing
    calls = []
    mul = Scalar.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    p = x1 + 2 * x2
    expected = {k: p if k == 1 else mul(p ** (k - 1), p) for k in range(1, 9)}
    monkeypatch.setattr(Scalar, "__mul__", counting_mul)
    for k, muls in ((0, 0), (1, 0), (2, 1), (3, 2), (5, 3), (7, 4), (8, 3)):
        calls.clear()
        value = p ** k
        assert len(calls) == muls, k
        assert value == (1 if k == 0 else expected[k])


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        x1 / Scalar.of(0)
    with pytest.raises(DivisionByZero):
        Scalar.of(0) ** -1


# --- substitute examples ----------------------------------------------------

def test_substitute_simple():
    assert substitute(u * u + x1, {"u": 2, "x1": Fraction(1, 3)}) == Fraction(13, 3)


def test_substitute_self_quotient():
    assert substitute(x1 / x1, {"x1": 5}) == 1


def test_substitute_after_reduction():
    # dividing by a unit, then evaluating, agrees with evaluating the
    # numerator and the denominator separately at the same point
    value = (x1 ** 2 - x2 ** 2) / (x1 * x2)
    assert value == x1 * x2 ** -1 - x1 ** -1 * x2
    point = {"x1": 2, "x2": 3}
    assert substitute(value, point) == Fraction(4 - 9, 2 * 3)


def test_substitute_errors():
    with pytest.raises(UnboundVariable):
        substitute(x1 + u, {"x1": 1})
    with pytest.raises(PoleAtPoint):
        substitute(x1 ** -1, {"x1": 0})
    with pytest.raises(PoleAtPoint):
        substitute(u + x1 / x2, {"u": 1, "x1": 1, "x2": 0})


# --- euler_expand examples --------------------------------------------------

def test_euler_expand_empty():
    series = euler_expand(EulerFactor([]), 5)
    assert series.coeffs == tuple([Scalar.of(1)] + [Scalar.of(0)] * 5)


def test_euler_expand_geometric():
    c = Scalar.variable("c")
    series = euler_expand(EulerFactor([c]), 3)
    assert series.coeffs == (Scalar.of(1), c, c ** 2, c ** 3)


def test_euler_expand_two_roots_vs_bruteforce_product():
    c1 = Scalar.variable("c1")
    c2 = Scalar.variable("c2")
    geom1 = [Scalar.of(1), c1, c1 ** 2]
    geom2 = [Scalar.of(1), c2, c2 ** 2]
    expected = _series_mul_bruteforce(geom1, geom2, 2)
    series = euler_expand(EulerFactor([c1, c2]), 2)
    assert list(series.coeffs) == expected
    assert series.coeffs[2] == c1 ** 2 + c1 * c2 + c2 ** 2


# --- series_equal examples --------------------------------------------------

def test_series_equal_basic():
    one_plus_t = TruncatedSeries(1, [1, 1])
    assert series_equal(one_plus_t, TruncatedSeries(1, [1, 1]), 1) is None
    assert series_equal(one_plus_t, TruncatedSeries(1, [1, 2]), 1) == 1


def test_series_equal_geometric_oracle():
    c = Scalar.variable("c")
    explicit = TruncatedSeries(3, [Scalar.of(1), c, c ** 2, c ** 3])
    assert series_equal(euler_expand(EulerFactor([c]), 3), explicit, 3) is None


def test_series_equal_insufficient_order():
    with pytest.raises(InsufficientOrder):
        series_equal(TruncatedSeries(1, [1, 1]), TruncatedSeries(3, [1, 1, 1, 1]), 2)


# --- canonical printing -----------------------------------------------------

def test_canonical_printing():
    assert str(1 + u) == "1 + u"
    assert str(u_power(-1) * (x1 + x2)) == "u^-1*x1 + u^-1*x2"
    assert str(Scalar.rational(-3, 2) * x1) == "-3/2*x1"
    assert str((x1 + x2) / (2 * x1)) == "1/2 + 1/2*x1^-1*x2"
    with pytest.raises(Unsupported):
        (x1 + x2) / (x1 - x2)
    assert str(Scalar.of(0)) == "0"
    assert str(euler_expand(EulerFactor([]), 2)) == "1 + 0*t + 0*t^2 + O(t^3)"


# --- properties -------------------------------------------------------------

_names = ("u", "x1", "x2")


@st.composite
def polys(draw, max_terms=2, min_terms=0):
    p = Scalar.of(0)
    for _ in range(draw(st.integers(min_terms, max_terms))):
        exps = {}
        for v in draw(st.sets(st.sampled_from(_names), max_size=2)):
            e = draw(st.integers(-2, 2))
            if e:
                exps[v] = e
        p = p + Scalar.monomial(exps, draw(st.integers(-3, 3)))
    return p


def scalars():
    return polys().map(Scalar.of)


@st.composite
def units(draw):
    exps = {v: draw(st.integers(-2, 2)) for v in draw(st.sets(st.sampled_from(_names)))}
    coeff = draw(st.fractions(max_denominator=5).filter(bool))
    return Scalar.monomial(exps, coeff)


rationals = st.one_of(st.integers(-10, 10), st.fractions(max_denominator=7))


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars(), scalars(), units())
def test_ring_axioms(a, b, c, unit):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c
    assert a - a == 0 and a * 1 == a
    assert unit * unit.inverse() == 1
    assert (a * unit) / unit == a
    assert unit ** -2 == (unit * unit).inverse()


@settings(max_examples=40, deadline=None)
@given(scalars(), polys(min_terms=2, max_terms=3))
def test_non_unit_division_raises(a, b):
    assume(len(b.terms) >= 2)
    b = Scalar.of(b)
    with pytest.raises(Unsupported):
        a / b
    with pytest.raises(Unsupported):
        b.inverse()
    with pytest.raises(Unsupported):
        b ** -1


_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
        "div": operator.truediv}


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars(), units(), st.sampled_from(sorted(_OPS)),
       st.integers(-5, 5).filter(bool), st.integers(-5, 5).filter(bool),
       st.integers(-5, 5).filter(bool))
def test_substitute_commutes_with_arith(a, b, unit, op, vu, v1, v2):
    # every point is nonzero, so no Laurent polynomial has a pole there
    point = {"u": Fraction(vu), "x1": Fraction(v1), "x2": Fraction(v2)}
    if op == "div":
        b = unit
    lhs = _OPS[op](a, b).substitute(point)
    assert lhs == _OPS[op](a.substitute(point), b.substitute(point))


@settings(max_examples=40, deadline=None)
@given(polys(), polys(), rationals)
def test_equal_values_hash_equally(p, q, r):
    a, b = Scalar.of(p), Scalar.of(q)
    for left, right in ((a + b, b + a), (a * b, b * a), ((a + b) - b, a),
                        ((a + r) - a, r), (Scalar.of(r), r), (Scalar.of(r), Fraction(r))):
        assert left == right
        assert hash(left) == hash(right)
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=40, deadline=None)
@given(rationals)
@example(1)
@example(Fraction(1, 2))
@example(0)
def test_dict_lookup_by_plain_rational_finds_scalar(r):
    assert {r: "x"}.get(Scalar.of(r)) == "x"
    assert {Scalar.of(r): "x"}.get(r) == "x"
    assert {Fraction(r): "x"}.get(Scalar.of(r)) == "x"


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-3, 3).filter(bool), max_size=4), st.integers(0, 5))
def test_euler_coefficients_are_complete_homogeneous(root_values, order):
    roots = [Scalar.of(v) for v in root_values]
    series = euler_expand(EulerFactor(roots), order)
    for k in range(order + 1):
        assert series.coeffs[k] == complete_homogeneous(k, roots)


def test_euler_factor_multiset_equality():
    a = EulerFactor([x1, x2, x1])
    b = EulerFactor([x2, x1, x1])
    c = EulerFactor([x1, x2, x2])
    assert a == b
    assert a != c


def test_series_store_exactly_order_plus_one_coefficients():
    with pytest.raises(ValueError):
        TruncatedSeries(2, [1, 2])
    series = TruncatedSeries(2, [1, 2, 3])
    assert len(series.coeffs) == 3
