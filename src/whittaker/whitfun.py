"""Torus values of spherical and essential Whittaker functions.

All evaluations happen on the diagonal torus, at points diag(w^l1, ...,
w^lm) encoded by their integer exponent vectors; Iwasawa decomposition
makes these values sufficient for every integral in scope.  The values
here are taken one point at a time; rseng's lattice sum reads the same
Schur values off whole tables, where every power of u cancels, and uses
nothing from this module.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .errors import BadRank, UnsupportedWeight
from .repdata import GenericRep, compute_piu
from .ringcore import Scalar, u_power
from .symfunc import Partition, schur


def _weakly_decreasing(weight: Sequence[int]) -> bool:
    return all(a >= b for a, b in zip(weight, weight[1:]))


def delta_half(weight: Sequence[int], rank: int) -> Scalar:
    """Square root of the Borel modulus character at a torus exponent vector.

    Convention: delta_B(a) is the product over i < j of |a_i / a_j|, so the
    value here is u^(-sum_i l_i (rank + 1 - 2i)).  With the opposite sign
    convention the unramified pairing tests fail at order t^1.
    """
    weight = tuple(int(x) for x in weight)
    if len(weight) != rank:
        raise BadRank(f"weight has length {len(weight)}, expected {rank}")
    return u_power(_delta_half_exponent(weight, rank))


def _delta_half_exponent(weight: Sequence[int], rank: int) -> int:
    # trailing zeros of weight may be left out
    return -sum(x * (rank - 1 - 2 * i) for i, x in enumerate(weight))


def spherical_value(satake: Sequence[Scalar], weight: Sequence[int]) -> Scalar:
    """Normalized spherical Whittaker value at diag(w^l1, ..., w^lm).

    Equals delta_half times the Schur polynomial of the Satake values at the
    weight; zero off the dominant cone.  Callers keep the last entry
    nonnegative (the integrals' support conditions force partitions), and
    dominant weights with negative entries are rejected to document that
    contract.
    """
    satake = tuple(map(Scalar.of, satake))
    weight = tuple(int(x) for x in weight)
    if len(weight) != len(satake):
        raise BadRank(f"weight rank {len(weight)} != Satake rank {len(satake)}")
    if not _weakly_decreasing(weight):
        return Scalar.of(0)
    if weight and weight[-1] < 0:
        raise UnsupportedWeight(
            f"dominant weight {weight} has negative entries; only partitions are supported")
    return u_power(_delta_half_exponent(weight, len(satake))) * schur(weight, satake)


def essential_value(rep: GenericRep, weight: Sequence[int]) -> Scalar:
    """Essential Whittaker value at diag(a, 1) with a = diag(w^l1, ..., w^l(n-1)).

    For an unramified representation (r = n) this is the spherical value on
    the weight extended by a trailing 0.  For 1 <= r <= n-1 the value is the
    spherical value of the unramified part at the first r coordinates, times
    u^(-(n-r) * sum), supported where the remaining coordinates vanish and
    the r-th is nonnegative.  For r = 0 the function is the indicator of the
    zero weight.  The value is 0 at every weight that is not a partition.
    """
    n = rep.n
    if n < 2:
        raise BadRank("essential values need a representation of GL(n), n >= 2")
    weight = tuple(int(x) for x in weight)
    if len(weight) != n - 1:
        raise BadRank(f"weight has length {len(weight)}, expected {n - 1}")
    if not _weakly_decreasing(weight) or (weight and weight[-1] < 0):
        return Scalar.of(0)
    lam = Partition(weight)
    r, params = compute_piu(rep)
    if lam.length > r:
        return Scalar.of(0)
    value = spherical_value(params, lam.padded(r))
    twist = -(n - r) * lam.size
    return value * u_power(twist) if twist else value


def beta_to_diag(z_exponents: Sequence[int]) -> Tuple[int, ...]:
    """Convert simple-root coordinates to diagonal-entry exponents.

    The torus point beta_1(z1) ... beta_m(zm), with beta_k(z) scaling the
    leading k-by-k block, has i-th diagonal entry z_i ... z_m; on exponent
    vectors this is the suffix sum.
    """
    z = tuple(int(x) for x in z_exponents)
    out = []
    acc = 0
    for x in reversed(z):
        acc += x
        out.append(acc)
    return tuple(reversed(out))


def essential_value_beta(rep: GenericRep, z_exponents: Sequence[int]) -> Scalar:
    """Essential Whittaker value in simple-root coordinates.

    Direct evaluation of the torus formula in the z-parametrization: the
    unramified part is evaluated at the suffix sums of (z_1..z_r), the
    twist contributes u^(-(n-r) * sum k*z_k), coordinate r must be
    nonnegative and coordinates r+1..n-1 must vanish.  Restricted to
    ramified representations (r <= n-1); agreement with essential_value
    after beta_to_diag is a consistency check between the two coordinate
    systems.
    """
    n = rep.n
    if n < 2:
        raise BadRank("essential values need a representation of GL(n), n >= 2")
    z = tuple(int(x) for x in z_exponents)
    if len(z) != n - 1:
        raise BadRank(f"z-vector has length {len(z)}, expected {n - 1}")
    r, params = compute_piu(rep)
    if r == n:
        raise BadRank("the simple-root formula is stated for ramified representations only")
    if r == 0:
        return Scalar.of(1) if not any(z) else Scalar.of(0)
    if z[r - 1] < 0 or any(z[i] for i in range(r, n - 1)):
        return Scalar.of(0)
    # the last suffix sum is z[r-1] >= 0, and spherical_value is 0 off the
    # dominant cone
    w0 = spherical_value(params, beta_to_diag(z[:r]))
    twist = -(n - r) * sum((k + 1) * z[k] for k in range(r))
    return w0 * u_power(twist)
