"""Laurent-ring arithmetic against sympy (development-only oracle).

Each drawn operand is a list of terms (coefficient, exponents).  The same
terms build a Scalar through the library and a sympy expression through
sympy alone; sums, products and small powers must then agree with
sympy.expand.  The comparison reads only the result's terms map, so the
oracle shares no arithmetic with ringcore.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from whittaker.ringcore import Scalar  # noqa: E402

_NAMES = ("u", "x1", "x2")
_SYMBOLS = {name: sympy.Symbol(name) for name in _NAMES}

terms = st.lists(
    st.tuples(st.fractions(-5, 5, max_denominator=4).filter(bool),
              st.dictionaries(st.sampled_from(_NAMES), st.integers(-3, 3), max_size=3)),
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
    for mono, coeff in value.terms.items():
        assert isinstance(coeff, Fraction) and coeff != 0
        expr = expr + sympy.Rational(coeff.numerator, coeff.denominator) * sympy.Mul(
            *(_SYMBOLS[name] ** e for name, e in mono))
    return expr


def _agrees(value: Scalar, expected) -> bool:
    return sympy.expand(_to_sympy(value) - expected) == 0


@settings(max_examples=40, deadline=None)
@given(terms, terms, st.integers(0, 4))
def test_ring_operations_match_sympy_expand(a_terms, b_terms, k):
    a, b = _library(a_terms), _library(b_terms)
    ea, eb = _oracle(a_terms), _oracle(b_terms)
    assert _agrees(a, sympy.expand(ea))
    assert _agrees(a + b, sympy.expand(ea + eb))
    assert _agrees(a - b, sympy.expand(ea - eb))
    assert _agrees(a * b, sympy.expand(ea * eb))
    assert _agrees(a ** k, sympy.expand(ea ** k))


@settings(max_examples=40, deadline=None)
@given(terms)
def test_terms_map_is_the_expanded_form(a_terms):
    # one entry per distinct monomial of the expansion, none of them zero
    a = _library(a_terms)
    expected = sympy.expand(_oracle(a_terms))
    count = 0 if expected == 0 else len(sympy.Add.make_args(expected))
    assert len(a.terms) == count
