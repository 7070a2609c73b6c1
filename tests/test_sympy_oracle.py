"""Laurent-ring arithmetic and the Cauchy identity against sympy.

Each drawn operand is a list of terms (coefficient, exponents).  The same
terms build a Scalar through the library and a sympy expression through
sympy alone; sums, products and small powers must then agree with
sympy.expand.  The Cauchy test expands prod 1/(1 - x_i y_j t) in sympy and
compares it with the series cauchy_check computes.  The comparisons read
only the results' terms maps, so the oracle shares no arithmetic with
ringcore.  sympy is a development-only dependency.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from whittaker.ringcore import Scalar, _sum  # noqa: E402
from whittaker.rseng import cauchy_check  # noqa: E402

_NAMES = ("u", "x1", "x2")
_SYMBOLS = {name: sympy.Symbol(name) for name in _NAMES}

# small exponents, and exponents at and past 2^15, where a value's packed
# monomials need more than 16 bits per variable
_EXPONENTS = st.one_of(st.integers(-3, 3), st.sampled_from([32767, -32767, 32768, 40000]))
terms = st.lists(
    st.tuples(st.fractions(-5, 5, max_denominator=4).filter(bool),
              st.dictionaries(st.sampled_from(_NAMES), _EXPONENTS, max_size=3)),
    max_size=4)


def _library(term_list):
    value = Scalar.of(0)
    for coeff, exps in term_list:
        value = value + Scalar.monomial(exps, coeff)
    return value


def _oracle(term_list):
    expr = sympy.Integer(0)
    for coeff, exps in term_list:
        mono = sympy.Rational(coeff.numerator, coeff.denominator)
        for name, e in exps.items():
            mono = mono * _SYMBOLS[name] ** e
        expr = expr + mono
    return expr


def _to_sympy(value: Scalar):
    expr = sympy.Integer(0)
    for mono, coeff in value.iter_terms():
        assert type(coeff) is int or type(coeff) is Fraction and coeff.denominator > 1
        assert coeff != 0
        expr = expr + sympy.Rational(coeff.numerator, coeff.denominator) * sympy.Mul(
            *(_SYMBOLS[name] ** e for name, e in mono))
    return expr


def _agrees(value: Scalar, expected) -> bool:
    # the same terms, and an alphabet of exactly the variables they use
    return (sympy.expand(_to_sympy(value) - expected) == 0
            and set(value.variables()) == {s.name for s in expected.free_symbols})


@settings(max_examples=40, deadline=None)
@given(terms, terms, st.integers(0, 4))
# x1 leaves the sum of the first pair, and the product of the second
@example([(Fraction(1), {"x1": 1}), (Fraction(1), {"x2": 2})], [(Fraction(-1), {"x1": 1})], 1)
@example([(Fraction(1), {"x1": 1, "u": 40000})], [(Fraction(1, 2), {"x1": -1, "u": -1})], 2)
def test_ring_operations_match_sympy_expand(a_terms, b_terms, k):
    a, b = _library(a_terms), _library(b_terms)
    ea, eb = _oracle(a_terms), _oracle(b_terms)
    assert _agrees(a, sympy.expand(ea))
    assert _agrees(a + b, sympy.expand(ea + eb))
    assert _agrees(a - b, sympy.expand(ea - eb))
    assert _agrees(a * b, sympy.expand(ea * eb))
    assert _agrees(a ** k, sympy.expand(ea ** k))
    # the n-ary sum of the kernel, of three values and of none
    assert _agrees(_sum((a, b, a * b)), sympy.expand(ea + eb + ea * eb))
    assert _agrees(_sum(()), sympy.Integer(0))


@settings(max_examples=40, deadline=None)
@given(terms)
def test_terms_map_is_the_expanded_form(a_terms):
    # one entry per distinct monomial of the expansion, none of them zero
    a = _library(a_terms)
    expected = sympy.expand(_oracle(a_terms))
    count = 0 if expected == 0 else len(sympy.Add.make_args(expected))
    assert len(a.terms) == count


def _cauchy_series(xs, ys, order):
    # coefficients of t^0..t^order of prod 1/(1 - x y t), each factor
    # expanded as the geometric series sum_j (x y t)^j
    coeffs = [sympy.Integer(1)] + [sympy.Integer(0)] * order
    for x in xs:
        for y in ys:
            root = x * y
            coeffs = [sympy.expand(sum(coeffs[k - j] * root ** j for j in range(k + 1)))
                      for k in range(order + 1)]
    return coeffs


# the Cauchy parameters, for _to_sympy to look up
_SYMBOLS.update((name, sympy.Symbol(name)) for name in ("x3", "y1", "y2", "y3"))


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_cauchy_coefficients_match_sympy_series(n, m):
    order = 4
    xs = [f"x{i + 1}" for i in range(n)]
    ys = [f"y{j + 1}" for j in range(m)]
    report = cauchy_check(n, m, [Scalar.variable(v) for v in xs],
                          [Scalar.variable(v) for v in ys], order)
    expected = _cauchy_series([_SYMBOLS[v] for v in xs], [_SYMBOLS[v] for v in ys], order)
    assert report.passed
    for k in range(order + 1):
        assert _agrees(report.lhs_series.coeffs[k], expected[k]), k
