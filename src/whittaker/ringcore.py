"""Exact coefficient arithmetic.

Scalar is the one ring-element class: an immutable element of the ring of
multivariate Laurent polynomials over Q, Q[u, u^-1, a, a^-1, ...], stored
as a sparse map from packed monomials to nonzero coefficients.  A
coefficient is an int when it is integral and a fractions.Fraction with
denominator > 1 otherwise, so the integer coefficients that Schur
polynomials, h_k and Euler products of symbolic parameters produce never
pay for Fraction arithmetic.  The variable alphabet is ordered with u first
(u^2 plays the role of the residue cardinality q, so half-integral powers
of q are Laurent monomials in u) followed by parameter names in
lexicographic order.  No floating point is used anywhere; exact evaluation
at a rational point sums integers over one common denominator, and a
binding must be an int or a Fraction.

Each value stores its alphabet: exactly the variables it contains, in that
order.  A monomial is one Python int holding one signed field per variable
of the alphabet and the total degree on top (the layout is in packing), so
a monomial product is one integer add and the graded lexicographic
comparison is one integer compare.  Sums and products of values go
through one kernel in packing: the operands are put on the union of
their alphabets (_aligned), the products are added into one terms map in
place (_add_product), and the canonical value is made once (_finished).
_sum runs it on a sum of many values, finished once, and + is its
two-value case; * runs it on one product, and symfunc's Schur tables on
a whole sum of products: the lattice sum, and the Euler expansion, whose
h_k are read off a one-row table (euler_expand).

Text and values at a point come from two kernels, each run on many values
at once and a block of at most packing._BLOCK terms at a time: _texts
here and packing._evaluate.  str of a Scalar, of a truncated series and
of an Euler factor's roots are calls of _texts, and substitute is a call
of _evaluate; a series is printed, and the CLI spot-check evaluates one,
in one call for all its coefficients, and an Euler factor's roots are
printed in one call for all its roots.  A block's keys are decoded once,
with one table per variable, so small coefficients share that work, and
what a call holds per term is bounded by a block, not by the largest
coefficient.

Every value in scope lives in this ring: Satake values are rationals or
single indeterminates, Schur polynomials and complete homogeneous
polynomials are polynomials, and the only divisions are by monomials,
which are units.  Division is therefore defined by units only.

The module also provides truncated power series in t = q^(-s) and Euler
factors (multisets of reciprocal roots), with exact comparison.  The
lhs of a passing Cauchy check of distinct atoms, whose x names all sort
before its y names, is a series in orbit form (orbits.Orbits): it is
printed from that form, a block of terms per piece, and evaluated from
it by the spot-check (symfunc._agrees_at), so neither kernel runs on it,
and its Scalars are made only when its coefficients are first read.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Mapping, Optional

from .errors import DivisionByZero, InsufficientOrder, InvalidCharacter, Unsupported
from .packing import (_VAR, Rational, _add_product, _aligned, _blocks, _canon,
                      _columns, _evaluate, _fields, _finished, _layout, _pack, _var_key, _width)

def _int_text(i: int) -> str:
    """Decimal text of i, also past Python's limit on int-to-str digits.

    str refuses an int of more digits than the process-wide limit (4,300
    by default) with ValueError; only then are the digits cut off by
    divmod in chunks of 500, fewer than the least limit Python allows, so
    the limit stays in force for every other conversion, such as parsing.
    """
    try:
        return str(i)
    except ValueError:
        pass
    chunk = 10 ** 500
    rest, pieces = abs(i), []
    while rest >= chunk:
        rest, low = divmod(rest, chunk)
        pieces.append(f"{low:0500d}")
    pieces.append(str(rest))
    return ("-" if i < 0 else "") + "".join(reversed(pieces))


def _coeff_text(c: Rational) -> str:
    if c.__class__ is int:
        return _int_text(c)
    return f"{_int_text(c.numerator)}/{_int_text(c.denominator)}"


def _power_text(v: str, e: int) -> str:
    # "*v^e", or "" for e = 0; a monomial's text joins these and drops the first "*"
    if not e:
        return ""
    return "*" + v if e == 1 else f"*{v}^{_int_text(e)}"


def _signed_text(c: Rational) -> str:
    # what precedes a monomial of coefficient c after the first term:
    # " + c*" or " - |c|*", and " + " or " - " for c = 1 or -1
    sign, c = (" - ", -c) if c < 0 else (" + ", c)
    return sign if c == 1 else f"{sign}{_coeff_text(c)}*"


def _term_text(c: Rational, monomial: str) -> str:
    # a term after the first: " + c*monomial", or " + c" for the constant
    if monomial:
        return _signed_text(c) + monomial
    return " - " + _coeff_text(-c) if c < 0 else " + " + _coeff_text(c)


def _join_terms(parts: list) -> str:
    # the terms joined, the first without its " + " and with "-" for " - "
    first = parts[0]
    parts[0] = first[3:] if first[1] == "+" else "-" + first[3:]
    return "".join(parts)


class Scalar:
    """Element of the Laurent ring Q[u, u^-1, a, a^-1, ...].

    Immutable; terms maps each packed monomial to its nonzero coefficient,
    an int when integral and otherwise a Fraction with denominator > 1;
    names is the alphabet, exactly the variables the value contains, with u
    first; bound bounds the absolute value of every exponent (exact when
    it is 2^(_WIDTH - 1) or more) and fixes the field width.  Together they
    are the canonical form, so instances are safe to share between threads
    and to use as dict keys.  A rational constant hashes like its Fraction.
    + (a call of _sum) and * make every nonzero result through packing's
    kernel, a rational constant factor too, and so its one canonical form.
    Division is exact and defined only by units, nonzero rationals times
    monomials: dividing by zero raises DivisionByZero and dividing by any
    other value raises Unsupported.
    """

    __slots__ = ("terms", "names", "bound")

    def __init__(self, terms: dict, names: tuple = (), bound: int = 0):
        self.terms = terms
        self.names = names
        self.bound = bound

    @classmethod
    def of(cls, value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if value.__class__ is int:
            return cls({0: value} if value else {})
        if isinstance(value, (int, Fraction)):
            return cls.rational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to Scalar")

    @classmethod
    def rational(cls, p: Rational, q: Rational = 1) -> "Scalar":
        if p.__class__ is int and q.__class__ is int:
            c = Fraction(p, q) if p % q else p // q
        else:
            c = _canon(Fraction(p) / Fraction(q))
        return cls({0: c} if c else {})

    @classmethod
    def variable(cls, name: str) -> "Scalar":
        if name in ("t", "q"):
            raise InvalidCharacter(f"'{name}' is reserved and cannot be a scalar variable")
        return cls({_VAR: 1}, (name,), 1)

    @classmethod
    def monomial(cls, exps: Mapping[str, int], coeff: Rational = 1) -> "Scalar":
        if coeff.__class__ is not int:
            coeff = _canon(Fraction(coeff))
        if not coeff:
            return cls({})
        items = sorted(((v, e) for v, e in exps.items() if e), key=lambda p: _var_key(p[0]))
        powers = [e for _, e in items]
        bound = max(map(abs, powers), default=0)
        return cls({_pack(powers, _width(bound)): coeff}, tuple(v for v, _ in items), bound)

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return not self.names

    def as_fraction(self) -> Fraction:
        if self.names:
            raise ValueError(f"{self} is not a rational constant")
        return Fraction(self.terms.get(0, 0))

    def is_variable(self) -> bool:
        return len(self.names) == 1 and len(self.terms) == 1 and self.terms.get(_VAR) == 1

    def variables(self) -> tuple:
        return self.names

    def iter_terms(self) -> Iterator[tuple]:
        """(monomial, coefficient) pairs, the monomial as ((name, exponent), ...).

        Names follow the alphabet order and only nonzero exponents appear.
        """
        names = self.names
        n, w = len(names), _width(self.bound)
        for k, c in self.terms.items():
            yield tuple((names[i], e) for i, e in _fields(k, n, w)), c

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar.of(other)
        return (self.names == other.names and self.terms == other.terms
                and _width(self.bound) == _width(other.bound))

    def __hash__(self):
        # hash(3) == hash(Fraction(3)), so a constant hashes like its Fraction
        if not self.names:
            return hash(self.terms.get(0, 0))
        return hash((self.names, frozenset(self.terms.items())))

    def __neg__(self):
        return Scalar({m: -c for m, c in self.terms.items()}, self.names, self.bound)

    def __add__(self, other):
        return _sum((self, other if other.__class__ is Scalar else Scalar.of(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Scalar.of(other))

    def __rsub__(self, other):
        return (-self) + Scalar.of(other)

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar.of(other)
        small, big = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        if not small.terms:
            return _ZERO
        names, w, _, (a, b) = _aligned((small, big), 2)
        out = {}
        _add_product(out, a, b)
        # the width holds twice the larger bound; the sum of the two bounds
        # is the tighter bound of the product
        return Scalar(*_finished(out, names, w, small.bound + big.bound))

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
        return Scalar({-mono: _canon(Fraction(1) / c)}, self.names, self.bound)

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
        """Evaluate at a rational point (exact); see module-level substitute."""
        nums, den = _evaluate((self,), bindings)
        return Fraction(nums[0], den)

    def _needs_parens(self) -> bool:
        terms = self.terms
        if len(terms) > 1:
            return True
        if not terms:
            return False
        (_, c), = terms.items()
        return c < 0

    def __str__(self):
        return "".join(_texts((self,))[0])

    def __repr__(self):
        return f"Scalar({self!s})"


_ZERO = Scalar({})
_ONE = Scalar({0: 1})


def _sum(values) -> Scalar:
    """The sum of the Scalars values, in one pass of packing's kernel.

    With at most one nonzero value that value is returned as it is.
    Otherwise the values are put on one layout (_aligned), the largest map
    is copied, every other map is added into the copy in place
    (_add_product), and the canonical value is made once (_finished), so a
    sum of many values costs their terms, not a growing map per value.
    """
    values = [v for v in values if v.terms]
    if len(values) < 2:
        return values[0] if values else _ZERO
    names, w, bound, maps = _aligned(values, 1)
    largest, *others = sorted(maps, key=len, reverse=True)
    out = dict(largest)
    for terms in others:
        _add_product(out, _ONE.terms, terms)
    return Scalar(*_finished(out, names, w, bound))


# Former name of the class, kept because perfbench/spans.py times the ring
# layer by patching __mul__ and __add__ under it.
LaurentPoly = Scalar


# ---------------------------------------------------------------------------
# the text kernel
# ---------------------------------------------------------------------------

def _print_order(terms, n: int, w: int) -> list:
    """The keys of terms, n fields at width w, in print order.

    Ascending keys run by degree, and within a degree by packed exponents
    ascending; the print order has higher exponents on earlier variables
    first, so each degree's run is reversed (a degree is (key + bias) >>
    top, and its keys lie below (degree << top) + 2^(top - 1)).
    """
    keys = sorted(terms)
    top, bias = w * n, _layout(n, w)[0]
    start = 0
    while start < len(keys):
        end = bisect_left(keys, (((keys[start] + bias) >> top) << top) + (1 << (top - 1)), start)
        keys[start:end] = keys[start:end][::-1]
        start = end
    return keys


def _texts(values) -> list:
    """The text of each value, as a list of pieces whose join is its text.

    A rational constant is its coefficient's text, and a value of no more
    terms than variables writes each term from the fields it uses
    (packing._fields), as tables would cost more than they save.  The
    others are put on one layout (packing._aligned), each one's keys in
    print order, and cut into blocks (_blocks): a block's keys are decoded
    in one packing._columns pass, with one power-text table per variable,
    and each value gets one piece per block that holds terms of it.
    """
    out, poly = [], []
    for v in values:
        terms, names = v.terms, v.names
        if not names:
            out.append([_coeff_text(terms[0]) if terms else "0"])
        elif len(terms) <= len(names):
            n, w = len(names), _width(v.bound)
            out.append([_join_terms([
                _term_text(terms[k], "".join(_power_text(names[i], e)
                                             for i, e in _fields(k, n, w))[1:])
                for k in _print_order(terms, n, w)])])
        else:
            poly.append(len(out))
            out.append([])
    if not poly:
        return out
    names, w, _, maps = _aligned([values[i] for i in poly], 1)
    n, half = len(names), 1 << (w - 1)
    maps = dict(zip(poly, maps))
    # the print orders are made as the blocks take them
    lists = ((i, _print_order(terms, n, w)) for i, terms in maps.items())

    def powers(j, fields):
        v, table = names[j], {}
        for f in fields:
            table[f] = _power_text(v, f - half)
        return table

    # a monomial's text joins its power texts (packing._columns), each made
    # once per variable and exponent in a block; the sign and coefficient of
    # each distinct coefficient, made once per call, go in front
    signed = {}
    for block, keys in _blocks(lists):
        rows, texts = zip(*_columns(keys, n, w, powers, add)), []
        for i, start, piece in block:
            terms = maps[i]
            if not start:
                signed.update((c, _signed_text(c)) for c in set(terms.values()).difference(signed))
            # zip takes from piece first, so it stops at the piece's end
            # without taking a row
            parts = [signed[terms[k]] + "".join(row)[1:] for k, row in zip(piece, rows)]
            if 0 in terms and 0 in piece:
                parts[piece.index(0)] = _term_text(terms[0], "")
            texts.append(parts)
        # the block's tables go before its texts are joined, and its texts
        # before the next block is decoded
        del rows
        for (i, start, _), parts in zip(block, texts):
            out[i].append("".join(parts) if start else _join_terms(parts))
        del keys, texts, parts
    return out


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

    Exactly order+1 coefficients are stored.  A series given an orbit form
    (form, an orbits.Orbits) is printed from it, and coeffs is then a
    function that makes them, called when they are first read.
    """

    __slots__ = ("order", "form", "_coeffs")

    def __init__(self, order: int, coeffs, form=None):
        if form is None:
            coeffs = tuple(map(Scalar.of, coeffs))
            if order < 0:
                raise ValueError("series order must be nonnegative")
            if len(coeffs) != order + 1:
                raise ValueError(f"expected {order + 1} coefficients, got {len(coeffs)}")
        self.order, self.form, self._coeffs = order, form, coeffs

    @property
    def coeffs(self) -> tuple:
        if self._coeffs.__class__ is not tuple:
            self._coeffs = TruncatedSeries(self.order, self._coeffs()).coeffs
        return self._coeffs

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.order == other.order and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def text_pieces(self) -> list:
        """The text of the series as a list of pieces whose join is its str.

        The coefficients' texts come from one _texts call, or from the
        orbit form (orbits.Orbits.texts), so no piece holds more than one
        block of terms (packing._BLOCK).
        """
        form, parts = self.form, []
        texts = _texts(self.coeffs) if form is None else form.texts(self.order)
        for k, pieces in enumerate(texts):
            if not k:
                parts += pieces
                continue
            # past t^0 a coefficient in orbit form holds every x_i * y_j, 4 terms or more
            if form is not None or self.coeffs[k]._needs_parens():
                parts += (" + (", *pieces, ")")
            else:
                parts += (" + ", *pieces)
            parts.append("*t" if k == 1 else f"*t^{k}")
        parts.append(f" + O(t^{self.order + 1})")
        return parts

    def __str__(self):
        return "".join(self.text_pieces())

    def __repr__(self):
        return f"TruncatedSeries({self!s})"


class EulerFactor:
    """Multiset of reciprocal roots c_i, denoting the product of 1/(1 - c_i t)."""

    __slots__ = ("roots",)

    def __init__(self, roots: Iterable):
        roots = tuple(map(Scalar.of, roots))
        for c in roots:
            if c.is_zero():
                raise InvalidCharacter("Euler factor roots must be nonzero")
        self.roots = roots

    def degree(self) -> int:
        return len(self.roots)

    def root_texts(self) -> list:
        """The text of every root, sorted, from one _texts call."""
        return sorted(map("".join, _texts(self.roots)))

    def __eq__(self, other):
        if not isinstance(other, EulerFactor):
            return NotImplemented
        return Counter(self.roots) == Counter(other.roots)

    def __hash__(self):
        return hash(frozenset(Counter(self.roots).items()))

    def __str__(self):
        if not self.roots:
            return "1"
        return " * ".join(f"1/(1 - ({c})*t)" for c in self.root_texts())

    def __repr__(self):
        return f"EulerFactor([{', '.join(self.root_texts())}])"


def euler_expand(factor: EulerFactor, order: int) -> TruncatedSeries:
    """Expand the Euler factor as a power series in t through the given order.

    The coefficient of t^k is the complete homogeneous polynomial h_k of the
    roots (with multiplicity), and h_k = s_(k), so the series is read off
    one symfunc Schur table of the roots over the one-row order ideal
    (0), (1), ..., (order), as Scalars (symfunc._h_scalars): state k is
    (k), and its fill is the geometric convolution h_k += x * h_(k-1), one
    root at a time.  The table runs in ints or in terms maps, as symfunc
    decides; the constant term is 1.
    """
    from . import symfunc

    if order < 0:
        raise ValueError("expansion order must be nonnegative")
    return TruncatedSeries(order, symfunc._h_scalars(factor.roots, order))


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

