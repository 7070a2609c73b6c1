"""Partitions, Schur polynomials and complete homogeneous polynomials.

Two production algorithms for Schur polynomials are provided: the
Jacobi-Trudi determinant in complete homogeneous polynomials (primary,
division-free) and the bialternant ratio (secondary, exact polynomial
division at a generic point).  A semistandard-tableau enumerator serves as
an independent test oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import UnsupportedWeight
from .ringcore import Scalar, _exact_div, _h_convolution

ALGORITHMS = ("jacobi-trudi", "bialternant")

# Entries kept by each of the two Schur caches (least recently used go
# first), so long-lived library use stays bounded.  All the checks of one
# generated suite representation at degree 12 need at most about 500
# Schur values; a symbolic cauchy 4x4 check at degree 8 needs about 120
# entries, some 2 MB.
SCHUR_CACHE_SIZE = 2048


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
    out = []
    for k in range(size_bound + 1):
        for parts in _exact_partitions(k, max_parts, k):
            out.append(Partition(parts))
    return out


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
        return Scalar.of(1)
    top = parts[0] + ell
    hs = _h_list(vars_key, top)
    zero = Scalar.of(0)

    def entry(i, j):
        e = parts[i] - (i + 1) + (j + 1)
        if e < 0:
            return zero
        return hs[e]

    total = zero
    for perm in itertools.permutations(range(ell)):
        sign = _perm_sign(perm)
        prod = Scalar.of(1)
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


@lru_cache(maxsize=None)
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
    for mono, c in generic.terms.items():
        term = Scalar.of(c)
        for name, e in mono:
            idx = int(name[2:]) - 1
            term = term * vars_key[idx] ** e
        total = total + term
    return total


def schur_detailed(shape, variables: Sequence, algorithm: str = "jacobi-trudi") -> SchurValue:
    """Schur polynomial s_shape(variables), with the length-vanishing flag.

    A shape longer than the variable list is not an error: the value is 0
    by the standard vanishing convention and the flag records it.
    """
    shape = _as_partition(shape)
    vars_key = tuple(Scalar.of(v) for v in variables)
    if shape.length > len(vars_key):
        return SchurValue(Scalar.of(0), True)
    if algorithm == "jacobi-trudi":
        value = _schur_jacobi_trudi(shape.parts, vars_key)
    elif algorithm == "bialternant":
        value = _schur_bialternant(shape.parts, vars_key)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    return SchurValue(value, False)


def schur(shape, variables: Sequence, algorithm: str = "jacobi-trudi") -> Scalar:
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
