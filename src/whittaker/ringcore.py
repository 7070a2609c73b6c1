"""Exact coefficient arithmetic.

Scalars are elements of the ring of multivariate Laurent polynomials over
Q, Q[u, u^-1, a, a^-1, ...].  The variable alphabet is ordered with u first
(u^2 plays the role of the residue cardinality q, so half-integral powers
of q are Laurent monomials in u) followed by parameter names in
lexicographic order.  No floating point is used anywhere; coefficients are
fractions.Fraction.

Every value in scope lives in this ring: Satake values are rationals or
single indeterminates, Schur polynomials and complete homogeneous
polynomials are polynomials, and the only divisions are by monomials,
which are units.  Division is therefore defined by units only.

The module also provides truncated power series in t = q^(-s) and Euler
factors (multisets of reciprocal roots), with exact comparison.
"""

from __future__ import annotations

from fractions import Fraction
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
        elif _var_key(va) < _var_key(vb):
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


class LaurentPoly:
    """Sparse multivariate Laurent polynomial with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    @staticmethod
    def const(c: Rational) -> "LaurentPoly":
        c = Fraction(c)
        return LaurentPoly({(): c} if c else {})

    @staticmethod
    def variable(name: str) -> "LaurentPoly":
        return LaurentPoly({((name, 1),): Fraction(1)})

    @staticmethod
    def monomial(exps: Mapping[str, int], coeff: Rational = 1) -> "LaurentPoly":
        coeff = Fraction(coeff)
        if not coeff:
            return LaurentPoly({})
        mono = tuple(sorted(((v, e) for v, e in exps.items() if e), key=lambda p: _var_key(p[0])))
        return LaurentPoly({mono: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return self.terms[()]

    def variables(self):
        seen = set()
        for mono in self.terms:
            for v, _ in mono:
                seen.add(v)
        return sorted(seen, key=_var_key)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return LaurentPoly({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
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
                    out[m] = s
                else:
                    del out[m]
        return LaurentPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.terms, other.terms
        if not a or not b:
            return _P_ZERO
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            (ma, ca), = a.items()
            if not ma and ca == 1:
                return LaurentPoly(dict(b))
            return LaurentPoly({_mono_mul(ma, mb): ca * cb for mb, cb in b.items()})
        out: dict = {}
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
        return LaurentPoly(out)

    def scale(self, c: Rational) -> "LaurentPoly":
        c = Fraction(c)
        if not c:
            return _P_ZERO
        if c == 1:
            return self
        return LaurentPoly({m: v * c for m, v in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = _P_ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def evaluate(self, bindings: Mapping[str, Fraction]) -> Fraction:
        total = Fraction(0)
        for mono, c in self.terms.items():
            val = c
            for v, e in mono:
                base = bindings[v]
                if base == 0 and e < 0:
                    raise PoleAtPoint(f"variable {v} is 0 with negative exponent")
                val = val * Fraction(base) ** e
            total += val
        return total

    def __str__(self):
        return _format_poly(self)

    def __repr__(self):
        return f"LaurentPoly({_format_poly(self)!r})"


_P_ZERO = LaurentPoly({})
_P_ONE = LaurentPoly({(): Fraction(1)})


def _format_mono(mono: Mono) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)


def _format_term(c: Fraction, mono: Mono) -> str:
    if not mono:
        return str(c)
    ms = _format_mono(mono)
    if c == 1:
        return ms
    if c == -1:
        return "-" + ms
    return f"{c}*{ms}"


def _format_poly(p: LaurentPoly) -> str:
    if not p.terms:
        return "0"
    varlist = p.variables()
    items = sorted(p.terms.items(), key=lambda mc: _print_key(mc[0], varlist))
    parts = [_format_term(items[0][1], items[0][0])]
    for mono, c in items[1:]:
        if c < 0:
            parts.append(" - " + _format_term(-c, mono))
        else:
            parts.append(" + " + _format_term(c, mono))
    return "".join(parts)


# ---------------------------------------------------------------------------
# exact division of ordinary polynomials (the bialternant divides by a
# Vandermonde determinant)
# ---------------------------------------------------------------------------

def _lead(p: LaurentPoly, varlist):
    return max(p.terms, key=lambda m: _grlex_key(m, varlist))


def _exact_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact division of ordinary polynomials; g must divide f."""
    if g.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if f.is_zero():
        return _P_ZERO
    if g.is_const():
        return f.scale(1 / g.const_value())
    varlist = sorted(set(f.variables()) | set(g.variables()), key=_var_key)
    mg = _lead(g, varlist)
    cg = g.terms[mg]
    mg_exp = dict(mg)
    r = dict(f.terms)
    q: dict = {}
    while r:
        rp = LaurentPoly(r)
        mr = _lead(rp, varlist)
        cr = r[mr]
        quot_exp = dict(mr)
        for v, e in mg_exp.items():
            quot_exp[v] = quot_exp.get(v, 0) - e
        if any(e < 0 for e in quot_exp.values()):
            raise ValueError("inexact polynomial division")
        qm = tuple(sorted(((v, e) for v, e in quot_exp.items() if e), key=lambda p: _var_key(p[0])))
        qc = cr / cg
        q[qm] = qc
        r = (rp - LaurentPoly({qm: qc}) * g).terms
    return LaurentPoly(q)


class Scalar:
    """Element of the Laurent ring Q[u, u^-1, a, a^-1, ...].

    Immutable; a single LaurentPoly with no zero coefficients is the
    canonical form, so instances are safe to share between threads and to
    use as dict keys.  A rational constant hashes like its Fraction.
    Division is exact and defined only by units, nonzero rationals times
    monomials: dividing by zero raises DivisionByZero and dividing by any
    other value raises Unsupported.
    """

    __slots__ = ("poly", "_hash")

    def __init__(self, poly: LaurentPoly):
        self.poly = poly
        self._hash = None

    @classmethod
    def of(cls, value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(LaurentPoly.const(value))
        if isinstance(value, LaurentPoly):
            return cls(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to Scalar")

    @classmethod
    def variable(cls, name: str) -> "Scalar":
        if name in ("t", "q"):
            raise InvalidCharacter(f"'{name}' is reserved and cannot be a scalar variable")
        return cls(LaurentPoly.variable(name))

    @classmethod
    def monomial(cls, exps: Mapping[str, int], coeff: Rational = 1) -> "Scalar":
        return cls(LaurentPoly.monomial(exps, coeff))

    @classmethod
    def rational(cls, p: Rational, q: Rational = 1) -> "Scalar":
        return cls(LaurentPoly.const(Fraction(p) / Fraction(q)))

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def is_rational(self) -> bool:
        return self.poly.is_const()

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not a rational constant")
        return self.poly.const_value()

    def is_variable(self) -> bool:
        if len(self.poly.terms) != 1:
            return False
        (mono, c), = self.poly.terms.items()
        return c == 1 and len(mono) == 1 and mono[0][1] == 1

    def variables(self):
        return self.poly.variables()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self):
        if self._hash is None:
            poly = self.poly
            self._hash = hash(poly.const_value()) if poly.is_const() else hash(poly)
        return self._hash

    def __neg__(self):
        return Scalar(-self.poly)

    def __add__(self, other):
        return Scalar(self.poly + Scalar.of(other).poly)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Scalar.of(other))

    def __rsub__(self, other):
        return (-self) + Scalar.of(other)

    def __mul__(self, other):
        return Scalar(self.poly * Scalar.of(other).poly)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * Scalar.of(other).inverse()

    def __rtruediv__(self, other):
        return Scalar.of(other) / self

    def inverse(self) -> "Scalar":
        """1/self; self must be a unit (a nonzero rational times a monomial)."""
        terms = self.poly.terms
        if not terms:
            raise DivisionByZero("scalar division by zero")
        if len(terms) != 1:
            raise Unsupported(f"cannot divide by {self}: only nonzero rationals "
                              f"times monomials are invertible")
        (mono, c), = terms.items()
        return Scalar(LaurentPoly({_mono_inv(mono): 1 / c}))

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return Scalar(self.poly ** k)

    def substitute(self, bindings: Mapping[str, Rational]) -> Fraction:
        """Evaluate at a rational point (exact); see module-level substitute."""
        frac_bindings = {}
        for v in self.variables():
            if v not in bindings:
                raise UnboundVariable(f"no binding for variable {v}")
            frac_bindings[v] = Fraction(bindings[v])
        return self.poly.evaluate(frac_bindings)

    def _needs_parens(self) -> bool:
        terms = self.poly.terms
        if len(terms) > 1:
            return True
        if not terms:
            return False
        (_, c), = terms.items()
        return c < 0

    def __str__(self):
        return _format_poly(self.poly)

    def __repr__(self):
        return f"Scalar({self!s})"


def substitute(p: Scalar, bindings: Mapping[str, Rational]) -> Fraction:
    """Exact rational value of p at the point given by bindings.

    Every variable of p must be bound (UnboundVariable otherwise), and no
    variable that carries a negative exponent may be 0 (PoleAtPoint
    otherwise).
    """
    return Scalar.of(p).substitute(bindings)


def u_power(e: int) -> Scalar:
    """The Laurent monomial u^e (u^2 stands for the residue cardinality q)."""
    return Scalar.monomial({"u": e})


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
            if c._needs_parens():
                cs = f"({cs})"
            if k == 0:
                parts.append(str(c))
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
    coeffs = [Scalar.of(1)] + [Scalar.of(0)] * top
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

