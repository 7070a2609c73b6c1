"""Torus values of spherical and essential Whittaker functions.

All evaluations happen on the diagonal torus, at points diag(w^l1, ...,
w^lm) encoded by their integer exponent vectors; Iwasawa decomposition
makes these values sufficient for every integral in scope.
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
    e = -sum(x * (rank - 1 - 2 * i) for i, x in enumerate(weight))
    return u_power(e)


def spherical_value(satake: Sequence[Scalar], weight: Sequence[int]) -> Scalar:
    """Normalized spherical Whittaker value at diag(w^l1, ..., w^lm).

    Equals delta_half times the Schur polynomial of the Satake values at the
    weight; zero off the dominant cone.  Callers keep the last entry
    nonnegative (the integrals' support conditions force partitions), and
    dominant weights with negative entries are rejected to document that
    contract.
    """
    satake = tuple(Scalar.of(v) for v in satake)
    weight = tuple(int(x) for x in weight)
    if len(weight) != len(satake):
        raise BadRank(f"weight rank {len(weight)} != Satake rank {len(satake)}")
    if not _weakly_decreasing(weight):
        return Scalar.of(0)
    if weight and weight[-1] < 0:
        raise UnsupportedWeight(
            f"dominant weight {weight} has negative entries; only partitions are supported")
    return delta_half(weight, len(weight)) * schur(Partition(weight), satake)


def _spherical_value_laurent(satake: Sequence[Scalar], weight: Sequence[int]) -> Scalar:
    # dominant weights with negative entries, via the shift
    # s_(l + c, ..., l_m + c) = (prod satake)^c * s_l; used only by the
    # indicator-removal test hook
    satake = tuple(Scalar.of(v) for v in satake)
    weight = tuple(int(x) for x in weight)
    if not _weakly_decreasing(weight):
        return Scalar.of(0)
    shift = -min(weight[-1], 0) if weight else 0
    shifted = tuple(x + shift for x in weight)
    value = delta_half(weight, len(weight)) * schur(Partition(shifted), satake)
    if shift:
        prod = Scalar.of(1)
        for v in satake:
            prod = prod * v
        value = value / prod ** shift
    return value


def essential_value(rep: GenericRep, weight: Sequence[int], *,
                    enforce_integrality: bool = True) -> Scalar:
    """Essential Whittaker value at diag(a, 1) with a = diag(w^l1, ..., w^l(n-1)).

    For an unramified representation (r = n) this is the spherical value on
    the weight extended by a trailing 0.  For 1 <= r <= n-1 the value is the
    spherical value of the unramified part at the first r coordinates, times
    u^(-(n-r) * sum), supported where the remaining coordinates vanish and
    the r-th is nonnegative.  For r = 0 the function is the indicator of the
    zero weight.

    enforce_integrality=False is a test-only hook that drops the
    nonnegativity condition on coordinate r (the 1_O(a_r) factor); the
    resulting "function" no longer matches any Rankin-Selberg L-factor.
    """
    n = rep.n
    if n < 2:
        raise BadRank("essential values need a representation of GL(n), n >= 2")
    weight = tuple(int(x) for x in weight)
    if len(weight) != n - 1:
        raise BadRank(f"weight has length {len(weight)}, expected {n - 1}")
    r, params = compute_piu(rep)
    if r == n:
        return spherical_value(params, weight + (0,))
    if r == 0:
        return Scalar.of(1) if not any(weight) else Scalar.of(0)
    if any(weight[i] for i in range(r, n - 1)):
        return Scalar.of(0)
    head = weight[:r]
    if not _weakly_decreasing(head):
        return Scalar.of(0)
    if head[-1] < 0:
        if enforce_integrality:
            return Scalar.of(0)
        w0 = _spherical_value_laurent(params, head)
    else:
        w0 = spherical_value(params, head)
    return w0 * u_power(-(n - r) * sum(head))


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
