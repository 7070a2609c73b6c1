"""Partitions, Schur polynomials and complete homogeneous polynomials.

The default Schur algorithm fills one table per variable tuple by the
Gelfand-Tsetlin branching rule (Macdonald I.(5.11)), summed over one
interlacing row at a time, with full columns split off by the bialternant
(I.(3.1)), so every Schur value of that tuple shares the work of the
smaller ones; when every value is rational the table runs in Python ints.
The Jacobi-Trudi determinant in complete homogeneous
polynomials and the bialternant ratio (exact polynomial division at a
generic point) stay selectable by name, and with a semistandard-tableau
enumerator they are the independent oracles the tests compare against.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import UnsupportedWeight
from .ringcore import _ONE, _ZERO, Scalar, _exact_div, _h_convolution, _scaled_ints

ALGORITHMS = ("branching", "jacobi-trudi", "bialternant")

# Entries kept by each of the oracle caches, _h_list, _schur_jacobi_trudi
# and the bialternant's _schur_generic (least recently used go first), so
# long-lived library use stays bounded.  All the checks of one generated
# suite representation at degree 12 need at most about 500 Schur values; a
# symbolic cauchy 4x4 check at degree 8 needs about 120 entries, some 2 MB.
SCHUR_CACHE_SIZE = 2048

# Branching tables kept (least recently used go first), one per variable
# tuple.  A verification needs two at a time, and the checks of one
# representation share its table; a symbolic table at degree 8 in four
# variables holds 129 polynomials of 3304 terms in all.
SCHUR_TABLE_CACHE_SIZE = 64

# Partition lists kept, one per (size, maximal number of parts): every check
# to degree d against a pi' of rank m reads the d + 1 lists of (k, m), k <= d.
PARTITION_CACHE_SIZE = 256


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of nonnegative integers (trailing zeros dropped)."""

    parts: tuple

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise UnsupportedWeight(f"{parts} is not weakly decreasing")
        if parts and parts[-1] < 0:
            raise UnsupportedWeight(f"{parts} has negative parts")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def padded(self, length: int) -> tuple:
        return self.parts + (0,) * (length - len(self.parts))

    def __iter__(self):
        return iter(self.parts)

    def __str__(self):
        return "(" + ",".join(map(str, self.parts)) + ")" if self.parts else "()"


def _exact_partitions(total: int, max_parts: int, max_first: int) -> Iterator[tuple]:
    # descending first part yields reverse-lexicographic order
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    lo = -(-total // max_parts)  # ceil: smallest admissible first part
    for first in range(min(total, max_first), lo - 1, -1):
        for rest in _exact_partitions(total - first, max_parts - 1, first):
            yield (first,) + rest


def partitions_up_to(size_bound: int, max_parts: int):
    """All partitions with size <= size_bound and at most max_parts parts.

    Ordered by size, then reverse-lexicographically within a size; each
    partition appears exactly once.
    """
    if size_bound < 0 or max_parts < 0:
        raise ValueError("bounds must be nonnegative")
    return [Partition(parts) for k in range(size_bound + 1)
            for parts in partitions_of(k, max_parts)]


@lru_cache(maxsize=PARTITION_CACHE_SIZE)
def partitions_of(size: int, max_parts: int) -> tuple:
    """The parts tuples of the partitions of size with at most max_parts parts.

    Reverse-lexicographic order, as in partitions_up_to.
    """
    return tuple(_exact_partitions(size, max_parts, size))


@lru_cache(maxsize=SCHUR_CACHE_SIZE)
def _h_list(vars_key: tuple, top: int):
    """[h_0, ..., h_top] of the given variables, by geometric convolution."""
    return tuple(_h_convolution(vars_key, top))


def complete_homogeneous(k: int, variables: Sequence) -> Scalar:
    """Sum of all monomials of total degree k in the given variables."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    vars_key = tuple(Scalar.of(v) for v in variables)
    return _h_list(vars_key, k)[k]


@dataclass(frozen=True)
class SchurValue:
    value: Scalar
    vanishes_by_length: bool


def _as_partition(shape) -> Partition:
    return shape if isinstance(shape, Partition) else Partition(shape)


@lru_cache(maxsize=SCHUR_CACHE_SIZE)
def _schur_jacobi_trudi(parts: tuple, vars_key: tuple) -> Scalar:
    ell = len(parts)
    if ell == 0:
        return _ONE
    top = parts[0] + ell
    hs = _h_list(vars_key, top)

    def entry(i, j):
        e = parts[i] - (i + 1) + (j + 1)
        if e < 0:
            return _ZERO
        return hs[e]

    total = _ZERO
    for perm in itertools.permutations(range(ell)):
        sign = _perm_sign(perm)
        prod = _ONE
        ok = True
        for i in range(ell):
            a = entry(i, perm[i])
            if a.is_zero():
                ok = False
                break
            prod = prod * a
        if ok:
            total = total + (prod if sign > 0 else -prod)
    return total


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


@lru_cache(maxsize=SCHUR_CACHE_SIZE)
def _schur_generic(parts: tuple, nvars: int) -> Scalar:
    """Schur polynomial in internal symbols _g1.._gk via the bialternant."""
    names = [f"_g{i + 1}" for i in range(nvars)]
    padded = parts + (0,) * (nvars - len(parts))
    exps = [padded[i] + nvars - 1 - i for i in range(nvars)]
    numer = Scalar.of(0)
    for perm in itertools.permutations(range(nvars)):
        numer = numer + Scalar.monomial({names[perm[i]]: exps[i] for i in range(nvars)},
                                        _perm_sign(perm))
    gens = [Scalar.variable(name) for name in names]
    vandermonde = Scalar.of(1)
    for i in range(nvars):
        for j in range(i + 1, nvars):
            vandermonde = vandermonde * (gens[i] - gens[j])
    return _exact_div(numer, vandermonde)


def _schur_bialternant(parts: tuple, vars_key: tuple) -> Scalar:
    generic = _schur_generic(parts, len(vars_key))
    total = Scalar.of(0)
    for mono, c in generic.iter_terms():
        term = Scalar.of(c)
        for name, e in mono:
            idx = int(name[2:]) - 1
            term = term * vars_key[idx] ** e
        total = total + term
    return total


class _SchurTable:
    """Schur values of one variable tuple x_1..x_n, by the branching rule.

    s_lam(x_1..x_k) is the sum, over mu interlacing lam
    (lam_1 >= mu_1 >= lam_2 >= ... >= mu_(k-1) >= lam_k), of
    s_mu(x_1..x_(k-1)) * x_k^(|lam| - |mu|) (Macdonald, Symmetric Functions
    and Hall Polynomials, I.(5.11)).  The sum runs one row of mu at a time:
    G_i(lam), its part with mu_j = lam_j for j < i, is
    G_(i+1)(lam) + x_k * G_i(lam - e_i) if lam_i > lam_(i+1), and
    G_(i+1)(lam) if the two rows are equal; G_1(lam) = s_lam, and
    G_k(lam) = s_(lam_1..lam_(k-1))(x_1..x_(k-1)) when lam_k = 0.  Each
    value thus costs one add and one multiply by x_k.  A full column comes
    off first: s_lam = (x_1...x_k)^c * s_(lam - c^k) for c = lam_k, as the
    bialternant a_(lam+delta) / a_delta (I.(3.1)) shows.  The Schur values
    are memoised per prefix length, and the other G_i in one dict per i.

    When every value is rational the table is filled in ints at the point
    y = D*x, D the lcm of the denominators, and homogeneity gives
    s_lam(x) = s_lam(y) / D^|lam|.  Otherwise the same code runs on Scalars
    at y = x, D = 1.  scaled() hands out D and the raw values, so a caller
    can keep a whole sum of Schur values in ints (or in Scalars) and divide
    once.  Values are deterministic, so threads that fill one entry
    concurrently store equal values.
    """

    __slots__ = ("_xs", "_scale", "_memo", "_rows_memo", "_columns", "_values")

    def __init__(self, vars_key: tuple):
        if all(v.is_rational() for v in vars_key):
            self._scale, self._xs = _scaled_ints(vars_key)
            one = 1
        else:
            self._xs = vars_key
            self._scale = 1
            one = _ONE
        # lam, zero-padded to length k -> s_lam(x_1..x_k)
        self._memo = {(0,) * k: one for k in range(len(vars_key) + 1)}
        self._rows_memo = [{} for _ in vars_key]   # i -> {lam: G_(i+1)(lam)}, i >= 1
        self._columns = list(itertools.accumulate(self._xs, operator.mul))  # x_1...x_k
        self._values = {}                       # parts -> returned Scalar

    def value(self, parts: tuple) -> Scalar:
        """s_parts(x_1..x_n); parts has at most n entries, no trailing zeros."""
        out = self._values.get(parts)
        if out is None:
            out = self._raw(parts)
            if out.__class__ is int:
                out = Scalar.rational(out, self._scale ** sum(parts))
            self._values[parts] = out
        return out

    def scaled(self):
        """(D, s) with s(parts) = s_parts(D*x_1..D*x_n).

        For a table of rationals D is the lcm of the denominators and s
        returns ints; otherwise D = 1 and s returns Scalars.  parts has at
        most n entries, no trailing zeros.
        """
        return self._scale, self._raw

    def _raw(self, parts: tuple):
        return self._branch(0, parts + (0,) * (len(self._xs) - len(parts)))

    def _branch(self, i: int, lam: tuple):
        # G_(i+1)(lam) of the class docstring, rows counted from 0 here.
        # Equal rows are skipped, and the last row hands over to k - 1
        # variables in this frame, so each variable nests at most one frame
        # per distinct part of lam: the recursion depth stays O(n).  A value
        # with i >= 1 is stored in _rows_memo[i] for the first row i >= the
        # one asked for with lam_i > lam_(i+1)
        while True:
            k = len(lam)
            if not i:
                out = self._memo.get(lam)
                if out is not None:
                    return out
                c = lam[-1]
                if c:
                    out = self._columns[k - 1] ** c * self._branch(0, tuple(p - c for p in lam))
                    self._memo[lam] = out
                    return out
            while i < k - 1 and lam[i] == lam[i + 1]:
                i += 1
            if i < k - 1:
                break
            lam, i = lam[:-1], 0
        if i:
            memo = self._rows_memo[i]
            out = memo.get(lam)
            if out is not None:
                return out
        else:
            memo = self._memo
        # Horner over lam_i, from the largest stored value below it, or from
        # lam_i = lam_(i+1), where the two rows are equal
        head, low, tail = lam[:i], lam[i + 1], lam[i + 1:]
        top = lam[i] - 1
        while top > low and (out := memo.get(head + (top,) + tail)) is None:
            top -= 1
        if top == low:
            out = self._branch(i + 1, head + (low,) + tail)
        x = self._xs[k - 1]
        for part in range(top + 1, lam[i] + 1):
            key = head + (part,) + tail
            out = memo[key] = self._branch(i + 1, key) + x * out
        return out


@lru_cache(maxsize=SCHUR_TABLE_CACHE_SIZE)
def _schur_table(vars_key: tuple) -> _SchurTable:
    return _SchurTable(vars_key)


def schur_detailed(shape, variables: Sequence, algorithm: str = "branching") -> SchurValue:
    """Schur polynomial s_shape(variables), with the length-vanishing flag.

    A shape longer than the variable list is not an error: the value is 0
    by the standard vanishing convention and the flag records it.
    """
    shape = _as_partition(shape)
    vars_key = tuple(map(Scalar.of, variables))
    if shape.length > len(vars_key):
        return SchurValue(Scalar.of(0), True)
    if algorithm == "branching":
        value = _schur_table(vars_key).value(shape.parts)
    elif algorithm == "jacobi-trudi":
        value = _schur_jacobi_trudi(shape.parts, vars_key)
    elif algorithm == "bialternant":
        value = _schur_bialternant(shape.parts, vars_key)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    return SchurValue(value, False)


def schur(shape, variables: Sequence, algorithm: str = "branching") -> Scalar:
    return schur_detailed(shape, variables, algorithm).value


def ssyt_tableaux(shape, nvars: int) -> Iterator[tuple]:
    """All semistandard Young tableaux of the given shape with entries 1..nvars.

    Rows weakly increase, columns strictly increase; tableaux are emitted as
    tuples of row tuples.
    """
    shape = _as_partition(shape)
    rows = shape.parts

    def fill(rowidx, colidx, current):
        if rowidx == len(rows):
            yield tuple(tuple(r) for r in current)
            return
        if colidx == rows[rowidx]:
            yield from fill(rowidx + 1, 0, current)
            return
        lo = 1
        if colidx > 0:
            lo = max(lo, current[rowidx][colidx - 1])
        if rowidx > 0:
            lo = max(lo, current[rowidx - 1][colidx] + 1)
        for v in range(lo, nvars + 1):
            current[rowidx].append(v)
            yield from fill(rowidx, colidx + 1, current)
            current[rowidx].pop()

    yield from fill(0, 0, [[] for _ in rows])


def schur_ssyt_oracle(shape, variables: Sequence) -> Scalar:
    """Schur polynomial by brute-force tableau enumeration (test oracle)."""
    vars_key = tuple(Scalar.of(v) for v in variables)
    total = Scalar.of(0)
    for tab in ssyt_tableaux(shape, len(vars_key)):
        term = Scalar.of(1)
        for row in tab:
            for v in row:
                term = term * vars_key[v - 1]
        total = total + term
    return total
