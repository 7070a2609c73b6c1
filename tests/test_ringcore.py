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
from whittaker import packing, ringcore
from whittaker.packing import (_WIDTH, _add_product, _aligned, _blocks, _evaluate, _fields,
                               _finished, _pack, _repack, _width)
from whittaker.ringcore import (
    EulerFactor,
    Scalar,
    TruncatedSeries,
    _sum,
    euler_expand,
    series_equal,
    substitute,
    u_power,
)
from whittaker.rseng import cauchy_check
from whittaker.symfunc import _exact_div, schur_ssyt_oracle

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
    # a remainder of 2, and a quotient term x2 / x1 that is no polynomial
    for num, den in ((u ** 2 + 1, u + 1), (x1 ** 2 + x2, x1)):
        with pytest.raises(ValueError, match="inexact"):
            _exact_div(num, den)


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


def test_monomial_merge_puts_u_first():
    # "a1" sorts before "u" by name, but u leads the variable order
    a1 = Scalar.variable("a1")
    assert a1 * u ** 2 == Scalar.monomial({"a1": 1, "u": 2})
    assert str(a1 * u ** 2 + x1 * a1) == "a1*x1 + u^2*a1"


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        x1 / Scalar.of(0)
    with pytest.raises(DivisionByZero):
        Scalar.of(0) ** -1
    with pytest.raises(DivisionByZero):
        _exact_div(x1, Scalar.of(0))


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


@settings(max_examples=80, deadline=None)
@given(st.integers(-10 ** 30, 10 ** 30), st.integers(-10 ** 12, 10 ** 12).filter(bool))
@example(6, 3)
@example(-6, 4)
@example(0, -5)
@example(7, -1)
def test_rational_from_ints_matches_the_fraction_route(p, q):
    # two ints take a shortcut past Fraction(p) / Fraction(q); the value,
    # the type of the canonical coefficient and the hash must not change
    got = Scalar.rational(p, q)
    expected = Scalar.rational(Fraction(p), Fraction(q))
    assert got == expected and hash(got) == hash(expected)
    assert [type(c) for _, c in got.iter_terms()] == [type(c) for _, c in expected.iter_terms()]
    assert got.as_fraction() == Fraction(p, q)


def test_rational_from_ints_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        Scalar.rational(3, 0)
    with pytest.raises(ZeroDivisionError):
        Scalar.rational(0, 0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-3, 3).filter(bool), max_size=4), st.integers(0, 5))
def test_euler_coefficients_are_complete_homogeneous(root_values, order):
    roots = [Scalar.of(v) for v in root_values]
    series = euler_expand(EulerFactor(roots), order)
    # h_k = s_(k): the tableaux of one row of k boxes, filled by brute force
    for k in range(order + 1):
        assert series.coeffs[k] == schur_ssyt_oracle((k,), roots)


# --- canonical coefficients -------------------------------------------------

def _is_canonical(value: Scalar) -> bool:
    # an int exactly when integral, otherwise a Fraction with denominator > 1
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in value.terms.values())


_small_fractions = st.fractions(-3, 3, max_denominator=4).filter(bool)


@st.composite
def rational_polys(draw, names=("a1", "u", "x1"), low=-2, max_terms=3):
    # few monomials and small denominators, so sums and products often
    # cancel a denominator; "a1" sorts before "u" by name but after it in
    # the variable order
    p = Scalar.of(draw(st.integers(-2, 2)))
    for _ in range(draw(st.integers(0, max_terms))):
        exps = {v: draw(st.integers(low, 2))
                for v in draw(st.sets(st.sampled_from(names), max_size=2))}
        p = p + Scalar.monomial(exps, draw(st.one_of(st.integers(-3, 3), _small_fractions)))
    return p


@settings(max_examples=60, deadline=None)
@given(rational_polys(), rational_polys(), units(), st.integers(0, 3),
       rational_polys(low=0), rational_polys(low=0))
@example(Scalar.of(1), Scalar.of(1), Scalar.monomial({"x1": 1}, 2), 1, Scalar.of(1), Scalar.of(1))
@example(Scalar.rational(1, 2) * x1, Scalar.rational(1, 2) * x1, Scalar.rational(1, 2), 2,
         Scalar.rational(3, 2) + x1, 2 * x1 + 1)
def test_coefficients_are_canonical(a, b, unit, k, f, g):
    results = [a, b, a + b, a - b, b - a, a * b, a ** k, unit.inverse(), unit ** -1,
               a * unit, a / unit]
    assert (a * unit) / unit == a
    if g:
        results.append(_exact_div(f * g, g))
        assert results[-1] == f
    for value in results:
        assert _is_canonical(value), value.terms


def test_canonical_coefficient_regressions():
    assert dict(Scalar.of(1).iter_terms()) == {(): 1}
    assert type(dict(Scalar.of(1).iter_terms())[()]) is int
    inverse = (2 * x1).inverse()
    ((mono, coeff),) = inverse.iter_terms()
    assert mono == (("x1", -1),)
    assert type(coeff) is Fraction and coeff == Fraction(1, 2)
    assert type(Scalar.of(3).as_fraction()) is Fraction
    assert type(Scalar.of(0).as_fraction()) is Fraction
    assert type(dict((Scalar.rational(1, 2) * 2).iter_terms())[()]) is int
    thirds = x1 * Scalar.rational(2, 3) + x1 * Scalar.rational(1, 3)
    assert type(dict(thirds.iter_terms())[(("x1", 1),)]) is int


# --- substitute against a naive Fraction oracle ------------------------------

def _substitute_oracle(value: Scalar, bindings):
    # None when some variable is unbound, "pole" for a pole, else the value
    total = Fraction(0)
    pole = False
    for mono, c in value.iter_terms():
        term = Fraction(c)
        for v, e in mono:
            if v not in bindings:
                return None
            base = Fraction(bindings[v])
            if base == 0 and e < 0:
                pole = True
                continue
            term *= base ** e
        total += term
    return "pole" if pole else total


_bindings = st.dictionaries(
    st.sampled_from(_names),
    st.one_of(st.integers(-4, 4), st.fractions(-5, 5, max_denominator=6)),
)


@settings(max_examples=150, deadline=None)
@given(rational_polys(low=-3, max_terms=5), _bindings)
@example(x1 ** -2 * x2 + Scalar.rational(1, 3) * u ** 3,
         {"u": Fraction(-2, 3), "x1": Fraction(5, 4), "x2": 0})
@example(x1 ** -1 + x2, {"x1": 0, "x2": 1})
@example(x1 ** 2 * x2 ** -1, {"x1": 0, "x2": Fraction(-1, 2)})
@example(x1 + u, {"x1": 1})
# a bool is an int
@example(x1 ** -1 + u, {"u": True, "x1": False})
@example(x1 ** 2 + u, {"u": True, "x1": Fraction(1, 2)})
def test_substitute_matches_naive_oracle(value, bindings):
    expected = _substitute_oracle(value, bindings)
    if expected is None:
        with pytest.raises(UnboundVariable):
            value.substitute(bindings)
    elif expected == "pole":
        with pytest.raises(PoleAtPoint):
            value.substitute(bindings)
    else:
        got = value.substitute(bindings)
        assert type(got) is Fraction and got == expected


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


# --- packed monomials ---------------------------------------------------------

_LIMIT = 2 ** (_WIDTH - 1)
_letters = ("a1", "u", "x1", "x2", "y1")
# small exponents, and exponents at and around the field limit
_exponents = st.one_of(st.integers(-3, 3), st.integers(-_LIMIT - 2, -_LIMIT + 2),
                       st.integers(_LIMIT - 2, _LIMIT + 2))


@st.composite
def packed_polys(draw, names=_letters, exponents=_exponents, max_terms=3):
    p = Scalar.of(draw(st.integers(-2, 2)))
    for _ in range(draw(st.integers(0, max_terms))):
        exps = {v: draw(exponents) for v in draw(st.sets(st.sampled_from(names), max_size=3))}
        p = p + Scalar.monomial(exps, draw(st.one_of(st.integers(-3, 3), _small_fractions)))
    return p


def _expected_terms(value):
    # {frozenset of (name, exponent): coefficient}, read through the decoder
    return {frozenset(mono): c for mono, c in value.iter_terms()}


_WIDTHS = st.sampled_from((16, 32, 64, 128))


@st.composite
def _sparse_exponents(draw):
    # 100 to 600 fields, 1 to 3 of them nonzero, up to the field's limit
    width = draw(_WIDTHS)
    limit = 2 ** (width - 1) - 1
    exps = [0] * draw(st.integers(100, 600))
    for i in draw(st.sets(st.integers(0, len(exps) - 1), min_size=1, max_size=3)):
        exps[i] = draw(st.one_of(st.integers(-3, 3), st.integers(-limit, limit),
                                 st.sampled_from((-limit, limit))).filter(bool))
    return exps, width


def _dense(key, n, w):
    # every exponent of key, zeros included, read through packing._fields
    exps = [0] * n
    for i, e in _fields(key, n, w):
        exps[i] = e
    return exps


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.tuples(st.lists(st.integers(-2 ** 40, 2 ** 40), max_size=5), _WIDTHS),
                 _sparse_exponents()))
def test_pack_fields_round_trip(case):
    exps, width = case
    assume(all(abs(e) < 2 ** (width - 1) for e in exps))
    assert list(_fields(_pack(exps, width), len(exps), width)) == \
        [(i, e) for i, e in enumerate(exps) if e]


_REPACK_NAMES = ("u", "a", "b", "c", "d", "e")
_MASK = st.lists(st.booleans(), min_size=6, max_size=6)
_FIELD = st.one_of(st.integers(-3, 3), st.integers(-2 ** 15 + 1, 2 ** 15 - 1))


@settings(max_examples=150, deadline=None)
@given(_MASK, _MASK, _MASK, st.sampled_from((16, 32, 64)), st.sampled_from((16, 32, 64)),
       st.lists(st.lists(_FIELD, min_size=6, max_size=6), max_size=6),
       st.one_of(st.just(0), st.integers(100, 600)))
# src u, b, d interleaved with the a, c, e of dst: three runs of one field
@example([1, 0, 1, 0, 1, 0], [1] * 6, [1] * 6, 16, 16, [[1, 0, -2, 0, 3, 0], [0, 0, 4, 0, 0, 0]],
         0)
# b and d are 0 in every key and dropped; the width goes up
@example([1, 1, 1, 1, 1, 0], [1, 1, 0, 1, 0, 0], [0] * 6, 16, 64,
         [[5, -2 ** 15 + 1, 0, 7, 0, 0], [0, 1, 0, -1, 0, 0]], 0)
# the width goes down, on the same alphabet
@example([0, 1, 1, 0, 0, 1], [1] * 6, [0] * 6, 64, 16, [[0, -3, 2 ** 15 - 1, 0, 0, 1]], 0)
# an empty src: the unit monomial only
@example([0] * 6, [1] * 6, [0, 1, 0, 1, 0, 0], 32, 16, [[0] * 6], 0)
# the same moves into a dst of hundreds of names, the width going up and down
@example([1, 0, 1, 0, 1, 1], [1] * 6, [1] * 6, 16, 64,
         [[1, 0, -2 ** 15 + 1, 0, 3, 0], [0, 0, 4, 0, 0, -1]], 400)
@example([1, 1, 0, 1, 0, 1], [1] * 6, [0] * 6, 64, 16, [[-5, 2 ** 15 - 1, 0, 7, 0, 1]], 600)
def test_repack_moves_each_exponent_to_its_field_and_back(in_src, used, in_dst, w_src, w, rows,
                                                          padding):
    # a variable of src that some key uses is in dst; the others, 0 in every
    # key, are kept or dropped as in_dst says, and dst may add variables:
    # padding more names, spread between and after the names of src
    src = tuple(v for v, keep in zip(_REPACK_NAMES, in_src) if keep)
    live = {v for v, keep, u in zip(_REPACK_NAMES, in_src, used) if keep and u}
    dst = tuple(v for v, keep in zip(_REPACK_NAMES, in_dst) if keep or v in live)
    dst = tuple(sorted({*dst, *(f"{'abcde'[j % 5]}{j:03}" for j in range(padding))},
                       key=lambda v: (v != "u", v)))
    exps = {}
    for row in rows:
        e = {v: x if v in live else 0 for v, x in zip(_REPACK_NAMES, row)}
        exps[_pack([e[v] for v in src], w_src)] = e
    terms = {k: i + 1 for i, k in enumerate(exps)}
    # _repack takes its target as the map of each name to its field
    out = _repack(terms, src, {v: i for i, v in enumerate(dst)}, w_src, w)
    assert sorted(out.values()) == sorted(terms.values())
    key_of = {c: k for k, c in out.items()}
    for k, c in terms.items():
        assert _dense(key_of[c], len(dst), w) == [exps[k].get(v, 0) for v in dst]
    assert _repack(out, dst, {v: i for i, v in enumerate(src)}, w, w_src) == terms


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.sampled_from(_letters), _exponents, max_size=4),
       st.one_of(st.integers(-3, 3).filter(bool), _small_fractions))
def test_monomial_decodes_to_its_exponents(exps, coeff):
    value = Scalar.monomial(exps, coeff)
    mono = tuple(sorted(((v, e) for v, e in exps.items() if e),
                        key=lambda p: (p[0] != "u", p[0])))
    assert list(value.iter_terms()) == [(mono, coeff)]
    assert value.variables() == tuple(v for v, _ in mono)


@settings(max_examples=80, deadline=None)
@given(st.integers(-_LIMIT - 3, _LIMIT + 3), st.integers(-_LIMIT - 3, _LIMIT + 3),
       st.integers(-3, 3))
@example(_LIMIT - 1, 1, 0)
@example(-_LIMIT + 1, -1, 0)
@example(_LIMIT - 1, _LIMIT - 1, 1)
def test_products_at_the_field_limit_never_wrap(a, b, c):
    # a field that reaches 2^(W-1) in absolute value would overflow into its
    # neighbour; the product must widen instead, and narrow again when the
    # exponents shrink back
    x = Scalar.variable("x1")
    y = Scalar.variable("y1")
    p = x ** a * y ** c
    q = x ** b * y
    product = p * q
    assert _expected_terms(product) == {
        frozenset((v, e) for v, e in (("x1", a + b), ("y1", c + 1)) if e): 1}
    assert product == Scalar.monomial({"x1": a + b, "y1": c + 1})
    assert product * x ** -(a + b) == y ** (c + 1)
    assert (product + x) - product == x
    assert str(product * x ** -(a + b)) == str(y ** (c + 1))


def test_ints_past_the_digit_limit_print_in_full():
    # str() refuses ints of more than 4,300 digits; chunks of all zeros
    # and a sign must survive the fallback
    def read(text):
        digits, value = text.lstrip("-"), 0
        for i in range(0, len(digits), 1000):
            value = value * 10 ** len(digits[i:i + 1000]) + int(digits[i:i + 1000])
        return -value if text.startswith("-") else value

    for v in (10 ** 5000, -(10 ** 5000 + 7), 3 ** 9000):
        assert read(str(Scalar.of(v))) == v
        head, _, tail = str(Scalar.rational(1, v) * x1 - 1).partition("/")
        assert head == ("-1 - 1" if v < 0 else "-1 + 1") and tail.endswith("*x1")
        assert read(tail[:-len("*x1")]) == abs(v)


def test_huge_exponents_print_exactly():
    x = Scalar.variable("x1")
    assert str(x ** (2 ** 40) * x) == f"x1^{2 ** 40 + 1}"
    assert str((x ** (2 ** 70) + 1) * x ** -(2 ** 70)) == "x1^-1180591620717411303424 + 1"
    assert x ** (2 ** 40) * x ** -(2 ** 40) == 1


@settings(max_examples=80, deadline=None)
@given(packed_polys(), packed_polys(), units())
def test_equal_values_over_different_alphabets(a, b, unit):
    # the same value reached by different routes has one packed form: equal,
    # equal hashes, and the alphabet of exactly the variables it contains
    for left, right in ((a * unit / unit, a), ((a + b) - b, a), (a * b + a, a * (b + 1)),
                        (a - a, Scalar.of(0))):
        assert left == right
        assert hash(left) == hash(right)
        assert left.variables() == right.variables()
        used = {v for mono, _ in left.iter_terms() for v, _ in mono}
        assert set(left.variables()) == used


def test_alphabet_is_trimmed():
    x, y = Scalar.variable("x"), Scalar.variable("y")
    assert (x * y) * x ** -1 == y
    assert ((x * y) * x ** -1).variables() == ("y",)
    assert (x + y - x).variables() == ("y",)
    assert (x + y - x) == y and hash(x + y - x) == hash(y)
    assert (u * x * u ** -1).variables() == ("x",)
    assert (x - x).variables() == () and (u * x / (u * x)).variables() == ()


def _old_print_key(mono, varlist):
    # the print order of tuple monomials: total degree, then higher
    # exponents on earlier variables first
    exps = dict(mono)
    return (sum(exps.values()), tuple(-exps.get(v, 0) for v in varlist))


def _old_format(value):
    def term(c, mono):
        if not mono:
            return str(c)
        ms = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
        return ms if c == 1 else "-" + ms if c == -1 else f"{c}*{ms}"

    items = sorted(value.iter_terms(), key=lambda mc: _old_print_key(mc[0], value.variables()))
    if not items:
        return "0"
    parts = [term(items[0][1], items[0][0])]
    for mono, c in items[1:]:
        parts.append(" - " + term(-c, mono) if c < 0 else " + " + term(c, mono))
    return "".join(parts)


@settings(max_examples=80, deadline=None)
@given(packed_polys(max_terms=5), packed_polys(exponents=st.integers(-3, 3), max_terms=5))
def test_print_order_matches_tuple_order(a, b):
    for value in (a, b, a * b, a + b):
        assert str(value) == _old_format(value)


# --- printing and evaluation by packed-key halves ------------------------------

_EIGHT = ("a1", "b2", "c3", "u", "w4", "x1", "x2", "y1")


@st.composite
def half_polys(draw):
    # a constant and up to 12 terms over an alphabet of up to 8 names: up
    # to 3 high-name exponent patterns times up to 3 low-name ones, so the
    # halves of the packed keys repeat, and up to 3 more terms; Laurent
    # exponents in several degrees, Fraction coefficients, and sometimes
    # exponents at and past the field limit (the wide layout)
    exponents = draw(st.sampled_from((st.integers(-3, 3), _exponents)))
    coefficients = st.one_of(st.integers(-3, 3), _small_fractions)
    names = sorted(draw(st.sets(st.sampled_from(_EIGHT), min_size=1)),
                   key=lambda v: (v != "u", v))
    split = len(names) - len(names) // 2

    def patterns(group):
        return [dict(zip(group, exps)) for exps in draw(st.lists(
            st.lists(exponents, min_size=len(group), max_size=len(group)),
            min_size=1, max_size=3))]

    highs, lows = patterns(names[:split]), patterns(names[split:])
    p = Scalar.of(draw(st.integers(-2, 2)))
    for h in highs:
        for l in lows:
            p = p + Scalar.monomial({**h, **l}, draw(coefficients))
    for exps in patterns(names):
        p = p + Scalar.monomial(exps, draw(coefficients))
    return p


_eight_bindings = st.dictionaries(
    st.sampled_from(_EIGHT), st.one_of(st.integers(-4, 4), st.fractions(-5, 5, max_denominator=6)),
    min_size=6).map(lambda b: {v: Fraction(x) for v, x in b.items()})


def _check_against_oracles(value, bindings):
    assert str(value) == _old_format(value)
    expected = _substitute_oracle(value, bindings)
    if expected is None:
        with pytest.raises(UnboundVariable):
            value.substitute(bindings)
    elif expected == "pole":
        with pytest.raises(PoleAtPoint):
            value.substitute(bindings)
    else:
        got = value.substitute(bindings)
        assert type(got) is Fraction and got == expected


@settings(max_examples=60, deadline=None)
@given(half_polys(), half_polys(), _eight_bindings)
@example(Scalar.monomial({"x1": 2}) + Scalar.monomial({"x2": -1}), Scalar.of(0),
         {"x1": 0, "x2": 0})
@example(Scalar.monomial({"x1": 2**15, "y1": -1}) * (Scalar.variable("a1") + 1),
         Scalar.of(1), {"a1": 2, "x1": Fraction(-1, 2), "y1": 3})
def test_half_tables_match_the_oracles(a, b, bindings):
    # the printer and the evaluator read a key by halves when the halves
    # repeat, and by fields otherwise; both must agree with the term-by-term
    # oracles, including the unbound-variable and pole cases
    values = [a, b, a + b]
    if a.bound < _LIMIT and b.bound < _LIMIT:
        values.append(a * b)
    else:
        # keep the oracle's exact powers of exponents near 2^15 small
        bindings = {v: x.numerator % 5 - 2 for v, x in bindings.items()}
    for value in values:
        _check_against_oracles(value, bindings)


def test_cauchy_lhs_matches_the_oracles():
    # 3x3 at degree 8: the t^8 coefficient has 2,025 terms in 6 variables,
    # and every key half repeats 45 times
    xs = [Scalar.variable(f"x{i + 1}") for i in range(3)]
    ys = [Scalar.variable(f"y{j + 1}") for j in range(3)]
    lhs = cauchy_check(3, 3, xs, ys, 8).lhs_series
    assert len(lhs.coeffs[8].terms) == 2025
    bindings = {"x1": Fraction(-2, 3), "x2": 5, "x3": Fraction(7, 4),
                "y1": Fraction(1, 9), "y2": -3, "y3": Fraction(-5, 2)}
    for coeff in lhs.coeffs:
        _check_against_oracles(coeff, bindings)
    _check_against_oracles(lhs.coeffs[8], {**bindings, "y2": 0})
    _check_against_oracles(lhs.coeffs[8] * Scalar.monomial({"y2": -1}), {**bindings, "y2": 0})
    del bindings["x3"]
    _check_against_oracles(lhs.coeffs[8], bindings)


# --- the text and evaluation kernels, block by block ----------------------------------

def _old_series_format(series):
    # the series text as the coefficients' texts joined term by term
    parts = []
    for k, c in enumerate(series.coeffs):
        cs = _old_format(c)
        if k and (len(c.terms) > 1 or (c.terms and next(iter(c.terms.values())) < 0)):
            cs = f"({cs})"
        parts.append(cs if k == 0 else f"{cs}*t" if k == 1 else f"{cs}*t^{k}")
    return " + ".join(parts + [f"O(t^{series.order + 1})"])


def _check_kernels(values, bindings):
    # the text of each value, of the values as a series and as Euler roots,
    # and their values at one point over one denominator, against the
    # term-by-term oracles
    assert ["".join(pieces) for pieces in ringcore._texts(values)] == list(map(_old_format, values))
    if values:
        series = TruncatedSeries(len(values) - 1, values)
        assert str(series) == _old_series_format(series)
    roots = [v for v in values if v]
    texts, calls = ringcore._texts, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ringcore, "_texts", lambda some: calls.append(some) or texts(some))
        assert EulerFactor(roots).root_texts() == sorted(map(_old_format, roots))
    # every root's text comes from one call of the text kernel
    assert len(calls) == 1
    expected = [_substitute_oracle(v, bindings) for v in values]
    if None in expected:
        with pytest.raises(UnboundVariable):
            _evaluate(values, bindings)
    elif "pole" in expected:
        with pytest.raises(PoleAtPoint):
            _evaluate(values, bindings)
    else:
        nums, den = _evaluate(values, bindings)
        assert [Fraction(num, den) for num in nums] == expected


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(half_polys(), packed_polys(max_terms=5),
                          rational_polys(low=-3, max_terms=5)), max_size=5),
       st.integers(1, 5), _eight_bindings)
@example([Scalar.of(0), Scalar.rational(-1, 2), x1 + 1, 3 * u ** 2 - x1 * x2 ** -1 + 1], 3,
         {"u": Fraction(1, 2), "x1": Fraction(-2, 3), "x2": 5})
@example([x1 * x2 + x1 - x2 + 1, x1 * x2 + x1 - x2 + 1], 2, {"x1": 0, "x2": 1})
# one variable: a high half of one field and an empty low half
@example([x1 ** 3 - 2 * x1 + Fraction(1, 3) * x1 ** -2 + 5, x1 ** 2 + x1 + 1], 4,
         {"x1": Fraction(-2, 3)})
# two variables: two halves of one field each
@example([x1 ** 2 * x2 - x1 * x2 ** -1 + Fraction(3, 2) * x2 ** 3 - x1 + 1
          + x1 ** -1 * x2 ** 2 + 2 * x1 ** 3 - x2, x2 - x1], 8,
         {"x1": 3, "x2": Fraction(1, 2)})
# a block of 16 keys over four variables in which no half value repeats
@example([sum((Fraction(i + 1, 3) * Scalar.monomial({"u": i, "a1": i - 8, "x1": i % 5, "x2": -i})
               for i in range(16)), Scalar.of(0)), x1 - 1], 16,
         {"u": Fraction(1, 2), "a1": 3, "x1": Fraction(-2, 3), "x2": 2})
# constants only, with a Fraction: no variable, so no column to fold
@example([Scalar.rational(1, 2), Scalar.rational(1, 3)], 2, {})
def test_kernels_in_small_blocks_match_the_oracles(values, block, bindings):
    # a block of a few terms cuts most values, and the values of one batch
    # lie on different alphabets, some at the wide layout
    if any(v.bound >= _LIMIT for v in values):
        # keep the oracle's exact powers of exponents near 2^15 small
        bindings = {v: x.numerator % 5 - 2 for v, x in bindings.items()}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(packing, "_BLOCK", block)
        _check_kernels(values, bindings)


def _laurent(size: int, name: str = "x1") -> Scalar:
    # size terms c * x^e in one variable, e from -size // 2 on, with a
    # constant term and coefficients of both signs, some Fractions
    exps = range(-(size // 2), size - size // 2)
    terms = {_pack([e], _WIDTH): (Fraction(e, 3) if e % 3 else e // 3 + (e == 0))
             for e in exps}
    return Scalar(terms, (name,), size // 2)


def test_a_value_of_one_block_and_one_of_a_block_and_a_term():
    bindings = {"x1": Fraction(-1, 2), "x2": 3}
    for block in (3, packing._BLOCK):
        values = [_laurent(block), _laurent(block + 1, "x2"), _laurent(block)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(packing, "_BLOCK", block)
            _check_kernels(values, bindings)
            assert [len(pieces) for pieces in ringcore._texts(values)] == [1, 2, 1]
    assert packing._BLOCK == 2048


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 9), max_size=8), st.integers(1, 6))
@example([3, 3], 3)
@example([4, 1, 2], 3)
def test_blocks_take_every_key_once(lengths, block):
    key_lists = []
    for i, length in enumerate(lengths):
        key_lists.append((i, list(range(10 * i, 10 * i + length))))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(packing, "_BLOCK", block)
        blocks = list(_blocks(key_lists))
    pieces = [(i, start, piece) for b, _ in blocks for i, start, piece in b]
    assert all(0 < sum(len(piece) for _, _, piece in b) <= block for b, _ in blocks)
    # each block comes with its keys, in order, in one list
    assert all(keys == [k for _, _, piece in b for k in piece] for b, keys in blocks)
    for i, keys in key_lists:
        mine = [(start, piece) for j, start, piece in pieces if j == i]
        assert [k for _, piece in mine for k in piece] == keys
        assert all(keys[start:start + len(piece)] == piece for start, piece in mine)
        # a list is cut only where it must be: every piece but its last
        # fills a block
        assert all(len(piece) == block for _, piece in mine[:-1])


def test_substitute_takes_only_ints_and_fractions():
    for bad in (0.1, "3", 1.0):
        with pytest.raises(TypeError):
            substitute(x1, {"x1": bad})
        with pytest.raises(TypeError):
            substitute(3 * x1 ** 2 - x1 + 1, {"x1": bad})
    # a binding of a variable the value lacks is not read
    assert substitute(x1, {"x1": 2, "x2": 0.1}) == 2


# --- sums of products added in place -----------------------------------------------

_y1 = Scalar.variable("y1")


@st.composite
def product_pairs(draw):
    """Factor pairs (a, b) of a sum of products.

    The factors of a pair share names or use disjoint halves of the
    alphabet; exponents reach the field limit (the wide layout), and
    coefficients include Fractions.  The sum may be made to cancel down to
    zero, or to a constant, by appending the negated pairs.
    """
    disjoint = draw(st.booleans())
    left = packed_polys(names=("a1", "x1") if disjoint else _letters)
    right = packed_polys(names=("u", "x2", "y1") if disjoint else _letters)
    pairs = draw(st.lists(st.tuples(left, right), min_size=1, max_size=4))
    cancel = draw(st.sampled_from(("none", "zero", "constant")))
    if cancel != "none":
        pairs += [(-a, b) for a, b in pairs]
    if cancel == "constant":
        pairs += [(x1 - _y1 + draw(_small_fractions), Scalar.of(1)), (_y1 - x1, Scalar.of(1))]
    return pairs


def _reference_sum(pairs) -> dict:
    """{((name, exponent), ...): Fraction} of the sum of the products a * b.

    Built from plain dicts read off iter_terms, so it shares no arithmetic
    with ringcore or packing.
    """
    out = {}
    for a, b in pairs:
        for mono_a, ca in a.iter_terms():
            for mono_b, cb in b.iter_terms():
                exps = dict(mono_a)
                for v, e in mono_b:
                    exps[v] = exps.get(v, 0) + e
                mono = tuple(sorted((v, e) for v, e in exps.items() if e))
                out[mono] = out.get(mono, 0) + Fraction(ca) * cb
    return {mono: c for mono, c in out.items() if c}


def _assert_is_reference(value, reference):
    # the terms, canonical coefficients, the alphabet (u first, then by
    # name) and the width of the largest exponent
    assert {tuple(sorted(mono)): c for mono, c in value.iter_terms()} == reference
    assert all(c.__class__ is int or c.denominator > 1 for c in value.terms.values())
    names = {v for mono in reference for v, _ in mono}
    assert value.names == tuple(sorted(names, key=lambda v: (v != "u", v)))
    largest = max((abs(e) for mono in reference for _, e in mono), default=0)
    assert _width(value.bound) == _width(largest)
    if largest >= _LIMIT:
        # a wide value's bound is exact
        assert value.bound == largest


@settings(max_examples=120, deadline=None)
@given(product_pairs())
@example([(x1 - _y1, x1 + _y1)])
@example([(x1 - _y1, Scalar.of(1)), (_y1 - x1, Scalar.of(1))])
@example([(x1 ** (_LIMIT - 1), x1 ** (_LIMIT - 1)), (x1 ** -5, x1 ** 5)])
@example([])
# a rational constant factor runs the kernel like any other: a Fraction
# coefficient, a product of constants that is the int 1, the unit 1, and a
# wide value that keeps its exact bound and width
@example([(Scalar.rational(1, 2), x1)])
@example([(Scalar.of(3), Scalar.rational(1, 3))])
@example([(Scalar.of(1), x1 - _y1)])
@example([(Scalar.rational(-2, 3), x1 ** 40000 * _y1)])
def test_sum_of_products_in_place_matches_the_operators(pairs):
    # the kernel route of the Schur tables, the lattice sum and the h
    # convolution: every factor on one alphabet at the width of a product
    # of two, each product added into one map, one Scalar at the end.  The
    # operators and the n-ary sum run the same kernel, so all three are
    # held to a reference sum of plain dicts.
    reference = _reference_sum(pairs)
    expected = Scalar.of(0)
    for a, b in pairs:
        expected = expected + a * b
    _assert_is_reference(_sum([a * b for a, b in pairs]), reference)
    names, w, bound, maps = _aligned([v for pair in pairs for v in pair], 2)
    out = {}
    for i in range(len(pairs)):
        _add_product(out, maps[2 * i], maps[2 * i + 1])
    got = Scalar(*_finished(out, names, w, bound))
    _assert_is_reference(got, reference)
    _assert_is_reference(expected, reference)
    assert got == expected
    assert hash(got) == hash(expected)
