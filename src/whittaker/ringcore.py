"""Exact coefficient arithmetic.

Scalar is the one ring-element class: an immutable element of the ring of
multivariate Laurent polynomials over Q, Q[u, u^-1, a, a^-1, ...], stored
as a sparse map from monomials to nonzero coefficients.  A coefficient is
an int when it is integral and a fractions.Fraction with denominator > 1
otherwise, so the integer coefficients that Schur polynomials, h_k and
Euler products of symbolic parameters produce never pay for Fraction
arithmetic.  The variable alphabet is ordered with u first (u^2 plays the
role of the residue cardinality q, so half-integral powers of q are
Laurent monomials in u) followed by parameter names in lexicographic
order.  No floating point is used anywhere; exact evaluation at a rational
point sums integers over one common denominator.

Every value in scope lives in this ring: Satake values are rationals or
single indeterminates, Schur polynomials and complete homogeneous
polynomials are polynomials, and the only divisions are by monomials,
which are units.  Division is therefore defined by units only; the
bialternant's exact polynomial division is the separate _exact_div.

The module also provides truncated power series in t = q^(-s) and Euler
factors (multisets of reciprocal roots), with exact comparison.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Optional, Union

from .errors import (
    DivisionByZero,
    InsufficientOrder,
    InvalidCharacter,
    PoleAtPoint,
    UnboundVariable,
    Unsupported,
)

Rational = Union[int, Fraction]

# A monomial is a tuple of (variable, exponent) pairs, sorted by variable
# order, with all exponents nonzero.  The empty tuple is the unit monomial.
Mono = tuple


def _var_key(name: str):
    # u sorts before every parameter name; parameters sort lexicographically
    return (0,) if name == "u" else (1, name)


def _canon(c: Rational) -> Rational:
    # canonical coefficient: an int when integral, else a Fraction with
    # denominator > 1
    if c.__class__ is int:
        return c
    return c.numerator if c.denominator == 1 else c


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            e = ea + eb
            if e:
                out.append((va, e))
            i += 1
            j += 1
        elif va == "u" or (vb != "u" and va < vb):
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_inv(a: Mono) -> Mono:
    return tuple((v, -e) for v, e in a)


def _mono_deg(a: Mono) -> int:
    return sum(e for _, e in a)


def _print_key(mono: Mono, varlist):
    # total degree, then exponent vector; higher exponents on earlier
    # variables print first within a degree
    exps = dict(mono)
    return (_mono_deg(mono), tuple(-exps.get(v, 0) for v in varlist))


def _grlex_key(mono: Mono, varlist):
    exps = dict(mono)
    return (_mono_deg(mono), tuple(exps.get(v, 0) for v in varlist))


def _format_term(c: Rational, mono: Mono) -> str:
    if not mono:
        return str(c)
    ms = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
    if c == 1:
        return ms
    if c == -1:
        return "-" + ms
    return f"{c}*{ms}"


class Scalar:
    """Element of the Laurent ring Q[u, u^-1, a, a^-1, ...].

    Immutable; terms maps each monomial to its nonzero coefficient, an int
    when integral and otherwise a Fraction with denominator > 1.  That map
    is the canonical form, so instances are safe to share between threads
    and to use as dict keys.  A rational constant hashes like its Fraction.
    Division is exact and defined only by units, nonzero rationals times
    monomials: dividing by zero raises DivisionByZero and dividing by any
    other value raises Unsupported.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict):
        self.terms = terms
        self._hash = None

    @classmethod
    def of(cls, value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if value.__class__ is int:
            return cls({(): value} if value else {})
        if isinstance(value, (int, Fraction)):
            return cls.rational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to Scalar")

    @classmethod
    def rational(cls, p: Rational, q: Rational = 1) -> "Scalar":
        c = _canon(Fraction(p) / Fraction(q))
        return cls({(): c} if c else {})

    @classmethod
    def variable(cls, name: str) -> "Scalar":
        if name in ("t", "q"):
            raise InvalidCharacter(f"'{name}' is reserved and cannot be a scalar variable")
        return cls({((name, 1),): 1})

    @classmethod
    def monomial(cls, exps: Mapping[str, int], coeff: Rational = 1) -> "Scalar":
        if coeff.__class__ is not int:
            coeff = _canon(Fraction(coeff))
        if not coeff:
            return cls({})
        mono = tuple(sorted(((v, e) for v, e in exps.items() if e), key=lambda p: _var_key(p[0])))
        return cls({mono: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not a rational constant")
        return Fraction(self.terms.get((), 0))

    def is_variable(self) -> bool:
        if len(self.terms) != 1:
            return False
        (mono, c), = self.terms.items()
        return c == 1 and len(mono) == 1 and mono[0][1] == 1

    def variables(self):
        return sorted({v for mono in self.terms for v, _ in mono}, key=_var_key)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            # hash(3) == hash(Fraction(3)), so a constant hashes like its Fraction
            self._hash = (hash(self.terms.get((), 0)) if self.is_rational()
                          else hash(frozenset(self.terms.items())))
        return self._hash

    def __neg__(self):
        return Scalar({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, Scalar):
            other = Scalar.of(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s if s.__class__ is int else _canon(s)
                else:
                    del out[m]
        return Scalar(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Scalar.of(other))

    def __rsub__(self, other):
        return (-self) + Scalar.of(other)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            other = Scalar.of(other)
        small, big = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        a, b = small.terms, big.terms
        if not a:
            return _ZERO
        if len(a) == 1:
            (ma, ca), = a.items()
            if ca.__class__ is int and ca == 1:
                # a bare monomial shifts exponents; coefficients stay canonical
                if not ma:
                    return big
                return Scalar({_mono_mul(ma, mb): cb for mb, cb in b.items()})
            out = {_mono_mul(ma, mb): ca * cb for mb, cb in b.items()}
        else:
            out = {}
            for ma, ca in a.items():
                for mb, cb in b.items():
                    m = _mono_mul(ma, mb)
                    s = out.get(m)
                    if s is None:
                        out[m] = ca * cb
                    else:
                        s = s + ca * cb
                        if s:
                            out[m] = s
                        else:
                            del out[m]
        for m, c in out.items():
            if c.__class__ is not int:
                out[m] = _canon(c)
        return Scalar(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * Scalar.of(other).inverse()

    def __rtruediv__(self, other):
        return Scalar.of(other) / self

    def inverse(self) -> "Scalar":
        """1/self; self must be a unit (a nonzero rational times a monomial)."""
        terms = self.terms
        if not terms:
            raise DivisionByZero("scalar division by zero")
        if len(terms) != 1:
            raise Unsupported(f"cannot divide by {self}: only nonzero rationals "
                              f"times monomials are invertible")
        (mono, c), = terms.items()
        return Scalar({_mono_inv(mono): _canon(Fraction(1) / c)})

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        # square only while bits of k remain, so no product is discarded
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return _ONE if result is None else result
            base = base * base

    def substitute(self, bindings: Mapping[str, Rational]) -> Fraction:
        """Evaluate at a rational point (exact); see module-level substitute.

        Each variable v, bound to n/d, has an exponent range [lo, hi] that
        contains 0, and n^(e - lo) * d^(hi - e) is an integer for every e in
        it; with the lcm of the coefficient denominators this puts every
        term over one common denominator, so the sum is taken in integers
        and only the result is a Fraction.
        """
        terms = self.terms
        point = {}
        for v in self.variables():
            if v not in bindings:
                raise UnboundVariable(f"no binding for variable {v}")
            point[v] = Fraction(bindings[v])
        lo = dict.fromkeys(point, 0)
        hi = dict.fromkeys(point, 0)
        coeff_den = 1
        for mono, c in terms.items():
            if c.__class__ is not int:
                coeff_den = lcm(coeff_den, c.denominator)
            for v, e in mono:
                if e < lo[v]:
                    # e < 0 here, so v = 0 is a pole
                    if not point[v]:
                        raise PoleAtPoint(f"variable {v} is 0 with negative exponent")
                    lo[v] = e
                elif e > hi[v]:
                    hi[v] = e
        # tables: (v, -lo, [n^(e - lo) * d^(hi - e) for e in lo..hi]); a
        # variable absent from a monomial contributes its e = 0 entry
        tables = []
        den = coeff_den
        for v, x in point.items():
            n, d, low, high = x.numerator, x.denominator, lo[v], hi[v]
            tables.append((v, -low, [n ** (e - low) * d ** (high - e)
                                     for e in range(low, high + 1)]))
            den *= n ** -low * d ** high
        total = 0
        for mono, c in terms.items():
            if c.__class__ is int:
                acc = c * coeff_den
            else:
                acc = c.numerator * (coeff_den // c.denominator)
            exps = dict(mono)
            for v, shift, table in tables:
                acc *= table[exps.get(v, 0) + shift]
            total += acc
        return Fraction(total, den)

    def _needs_parens(self) -> bool:
        terms = self.terms
        if len(terms) > 1:
            return True
        if not terms:
            return False
        (_, c), = terms.items()
        return c < 0

    def __str__(self):
        if not self.terms:
            return "0"
        varlist = self.variables()
        items = sorted(self.terms.items(), key=lambda mc: _print_key(mc[0], varlist))
        parts = [_format_term(items[0][1], items[0][0])]
        for mono, c in items[1:]:
            if c < 0:
                parts.append(" - " + _format_term(-c, mono))
            else:
                parts.append(" + " + _format_term(c, mono))
        return "".join(parts)

    def __repr__(self):
        return f"Scalar({self!s})"


_ZERO = Scalar({})
_ONE = Scalar({(): 1})

# Former name of the class, kept because perfbench/spans.py times the ring
# layer by patching __mul__ and __add__ under it.
LaurentPoly = Scalar


def substitute(p: Scalar, bindings: Mapping[str, Rational]) -> Fraction:
    """Exact rational value of p at the point given by bindings.

    Every variable of p must be bound (UnboundVariable otherwise), and no
    variable that carries a negative exponent may be 0 (PoleAtPoint
    otherwise).
    """
    return Scalar.of(p).substitute(bindings)


# ---------------------------------------------------------------------------
# exact division of ordinary polynomials (the bialternant divides by a
# Vandermonde determinant)
# ---------------------------------------------------------------------------

def _lead(p: Scalar, varlist):
    return max(p.terms, key=lambda m: _grlex_key(m, varlist))


def _exact_div(f: Scalar, g: Scalar) -> Scalar:
    """Exact division of ordinary polynomials; g must divide f."""
    if g.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if g.is_rational():
        return f * g.inverse()
    varlist = sorted(set(f.variables()) | set(g.variables()), key=_var_key)
    mg = _lead(g, varlist)
    cg = g.terms[mg]
    q = _ZERO
    r = f
    while r:
        mr = _lead(r, varlist)
        exps = dict(mr)
        for v, e in mg:
            exps[v] = exps.get(v, 0) - e
        if any(e < 0 for e in exps.values()):
            raise ValueError("inexact polynomial division")
        term = Scalar.monomial(exps, Fraction(r.terms[mr]) / cg)
        q = q + term
        r = r - term * g
    return q


def u_power(e: int) -> Scalar:
    """The Laurent monomial u^e (u^2 stands for the residue cardinality q)."""
    return Scalar({(("u", e),): 1}) if e else _ONE


# ---------------------------------------------------------------------------
# truncated power series in t = q^(-s)
# ---------------------------------------------------------------------------

class TruncatedSeries:
    """Formal power series in t, stored through a fixed truncation order.

    Exactly order+1 coefficients are stored.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable):
        coeffs = tuple(Scalar.of(c) for c in coeffs)
        if order < 0:
            raise ValueError("series order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError(f"expected {order + 1} coefficients, got {len(coeffs)}")
        self.order = order
        self.coeffs = coeffs

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.order == other.order and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            cs = str(c)
            if k and c._needs_parens():
                cs = f"({cs})"
            if k == 0:
                parts.append(cs)
            elif k == 1:
                parts.append(f"{cs}*t")
            else:
                parts.append(f"{cs}*t^{k}")
        parts.append(f"O(t^{self.order + 1})")
        return " + ".join(parts)

    def __repr__(self):
        return f"TruncatedSeries({self!s})"


class EulerFactor:
    """Multiset of reciprocal roots c_i, denoting the product of 1/(1 - c_i t)."""

    __slots__ = ("roots",)

    def __init__(self, roots: Iterable):
        roots = tuple(Scalar.of(c) for c in roots)
        for c in roots:
            if c.is_zero():
                raise InvalidCharacter("Euler factor roots must be nonzero")
        self.roots = roots

    def degree(self) -> int:
        return len(self.roots)

    def sorted_roots(self):
        return sorted(self.roots, key=str)

    def __eq__(self, other):
        if not isinstance(other, EulerFactor):
            return NotImplemented
        a = {}
        for c in self.roots:
            a[c] = a.get(c, 0) + 1
        b = {}
        for c in other.roots:
            b[c] = b.get(c, 0) + 1
        return a == b

    def __hash__(self):
        counts = {}
        for c in self.roots:
            counts[c] = counts.get(c, 0) + 1
        return hash(frozenset(counts.items()))

    def __str__(self):
        if not self.roots:
            return "1"
        return " * ".join(f"1/(1 - ({c})*t)" for c in self.sorted_roots())

    def __repr__(self):
        return f"EulerFactor([{', '.join(map(str, self.sorted_roots()))}])"


def euler_expand(factor: EulerFactor, order: int) -> TruncatedSeries:
    """Expand the Euler factor as a power series in t through the given order.

    The coefficient of t^k is the complete homogeneous polynomial h_k of the
    roots (with multiplicity); the constant term is 1.
    """
    if order < 0:
        raise ValueError("expansion order must be nonnegative")
    return TruncatedSeries(order, _h_convolution(factor.roots, order))


def _h_convolution(roots, top: int) -> list:
    """[h_0, ..., h_top] of the roots (with multiplicity), by geometric convolution.

    Multiplying in one factor 1/(1 - x t) at a time: after each root, the
    coefficient of t^k gains x times the coefficient of t^(k-1).
    """
    coeffs = [_ONE] + [_ZERO] * top
    for x in roots:
        for k in range(1, top + 1):
            coeffs[k] = coeffs[k] + x * coeffs[k - 1]
    return coeffs


def series_equal(a: TruncatedSeries, b: TruncatedSeries, order: int) -> Optional[int]:
    """Compare two series exactly through the given order.

    Returns None when all coefficients agree, otherwise the smallest index
    at which they differ.  Both series must carry at least the requested
    order (InsufficientOrder otherwise).  Comparison is exact: any mismatch
    is a genuine inequality, never a rounding artifact.
    """
    if a.order < order or b.order < order:
        raise InsufficientOrder(
            f"need order {order}, have {a.order} and {b.order}")
    for k in range(order + 1):
        if a.coeffs[k] != b.coeffs[k]:
            return k
    return None

