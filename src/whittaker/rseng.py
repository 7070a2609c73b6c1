"""Rankin-Selberg torus-sum engine.

Expands the local integral I(W, W', s) as a truncated power series in
t = q^(-s), builds the matching Euler factor, and compares the two exactly.
The torus measure is normalized so each lattice point contributes once
(vol(A_m(O)) = 1); this is the normalization under which the unramified
pairing identities hold with the standard spherical formula, and it is
pinned by cauchy_check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple, Union

from .errors import BadRanks, InvariantViolation, Unsupported
from .repdata import GenericRep, UnramifiedLanglandsRep, compute_piu
from .ringcore import EulerFactor, Scalar, TruncatedSeries, euler_expand, series_equal, u_power
from .symfunc import partitions_up_to
from .whitfun import _spherical_value_laurent, essential_value, spherical_value

LeftInput = Union[GenericRep, UnramifiedLanglandsRep]

# How far below zero the last weight entry may go once the integrality
# indicator is dropped (test hook of rs_series and verify_essential).
_NEGATIVE_DEPTH = 2


@dataclass
class VerificationReport:
    """Evidence object for one exact series comparison."""

    passed: bool
    degree_checked: int
    first_mismatch: Optional[Tuple[int, Scalar, Scalar]]
    lhs_series: TruncatedSeries
    rhs_series: TruncatedSeries
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.passed != (self.first_mismatch is None):
            raise InvariantViolation("pass flag inconsistent with first_mismatch")

    def summary_lines(self):
        meta = " ".join(f"{k}={self.metadata[k]}" for k in sorted(self.metadata))
        lines = [meta] if meta else []
        lines.append(f"lhs: {self.lhs_series}")
        lines.append(f"rhs: {self.rhs_series}")
        if self.passed:
            lines.append(f"result: pass (exact through t^{self.degree_checked})")
        else:
            k, lc, rc = self.first_mismatch
            lines.append(f"result: FAIL first_mismatch=t^{k} lhs={lc} rhs={rc}")
        return lines


def _root_products(params: Sequence[Scalar], satake: Sequence[Scalar]):
    return [xi * w for xi in params for w in satake]


def l_factor(rep: GenericRep, pi_prime: UnramifiedLanglandsRep) -> EulerFactor:
    """L(pi, pi', s) as an Euler factor.

    Only segments with unramified character tops contribute (every other
    pairing has trivial local factor), so the reciprocal roots are the r*m
    products of the unramified-part parameters with the Satake values of
    pi'.  r = 0 gives the empty product, i.e. L = 1.
    """
    _, params = compute_piu(rep)
    return EulerFactor(_root_products(params, pi_prime.satake))


def theorem_product(rep: GenericRep, satake_prime: Sequence[Scalar]) -> EulerFactor:
    """Euler factor of the product of standard L-factors L(pi, s + s_j).

    Each Satake value w_j = q^(-s_j) rescales the reciprocal roots of the
    standard factor of pi; the result must equal l_factor as a multiset.
    """
    _, params = compute_piu(rep)
    roots = []
    for w in satake_prime:
        w = Scalar.of(w)
        roots.extend(xi * w for xi in params)
    return EulerFactor(roots)


def _dominant_weights(total: int, parts: int, floor: int) -> Iterator[tuple]:
    """Weakly decreasing integer tuples of fixed length, entries >= floor."""
    hi_start = total + (parts - 1) * max(-floor, 0) if parts else 0

    def gen(remaining, slots, hi):
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        lo = max(floor, remaining - (slots - 1) * hi) if slots > 1 else remaining
        if lo < floor:
            lo = floor
        for first in range(min(hi, remaining - (slots - 1) * floor), lo - 1, -1):
            for rest in gen(remaining - first, slots - 1, first):
                yield (first,) + rest

    yield from gen(total, parts, hi_start)


def rs_series(left: LeftInput, pi_prime: UnramifiedLanglandsRep, order: int, *,
              drop_integrality: bool = False) -> TruncatedSeries:
    """Truncated expansion of the Rankin-Selberg integral in t = q^(-s).

    The coefficient of t^k sums, over partitions of k with at most m parts,
    the product of the left Whittaker value at the embedded weight, the
    spherical value of pi', the inverse Borel modulus, and the twist
    u^((n-m)|lambda|).  The support conditions of both factors force the
    index set to be exactly those partitions.

    The left argument is a GenericRep (essential-function side, m <= n-1,
    or m = n when the representation is unramified) or an
    UnramifiedLanglandsRep of rank n >= m (spherical side; the equal-rank
    branch restricts to partitions through the lattice indicator).

    drop_integrality (test hook) removes the 1_O(a_r) factor from the
    essential function; the index set then grows to dominant weights with
    entries down to -_NEGATIVE_DEPTH, exposing the divergence the indicator
    prevents.
    """
    m = pi_prime.rank
    satake_prime = pi_prime.satake
    if isinstance(left, GenericRep):
        n = left.n
        if m > n:
            raise BadRanks(f"pi' rank {m} exceeds n = {n}")
        r, params = compute_piu(left)
        if m == n:
            if r != n:
                raise Unsupported(
                    "equal-rank integrals need an unramified left argument")
            left_value = _spherical_left(params, n)
        else:
            left_value = _essential_left(left, n, drop_integrality)
    elif isinstance(left, UnramifiedLanglandsRep):
        n = left.rank
        if m > n:
            raise BadRanks(f"pi' rank {m} exceeds n = {n}")
        if drop_integrality:
            raise Unsupported("the integrality hook applies to the essential-function side")
        left_value = _spherical_left(left.satake, n)
    else:
        raise TypeError(f"unsupported left argument {type(left).__name__}")

    coeffs = [Scalar.of(0)] * (order + 1)
    if drop_integrality:
        weights = ((sum(w), w) for k in range(order + 1)
                   for w in _dominant_weights(k, m, -_NEGATIVE_DEPTH))
    else:
        weights = ((lam.size, lam.padded(m)) for lam in partitions_up_to(order, m))
    for k, w in weights:
        term = left_value(w)
        if term.is_zero():
            continue
        if drop_integrality and w and w[-1] < 0:
            wprime = _spherical_value_laurent(satake_prime, w)
        else:
            wprime = spherical_value(satake_prime, w)
        if wprime.is_zero():
            continue
        # delta^(-1) * nu^(-(n-m)/2) on the torus point: delta^(-1) is
        # u^(2 * sum_i w_i (m - 1 - 2i)) and the twist is u^((n - m) * k)
        mod = u_power(sum(x * (n + m - 2 - 4 * i) for i, x in enumerate(w)))
        coeffs[k] = coeffs[k] + term * wprime * mod
    return TruncatedSeries(order, coeffs)


def _spherical_left(satake: Sequence[Scalar], n: int):
    satake = tuple(satake)

    def value(weight):
        return spherical_value(satake, weight + (0,) * (n - len(weight)))

    return value


def _essential_left(rep: GenericRep, n: int, drop_integrality: bool):
    def value(weight):
        padded = weight + (0,) * (n - 1 - len(weight))
        return essential_value(rep, padded,
                               enforce_integrality=not drop_integrality)

    return value


def verify_essential(rep: GenericRep, pi_prime: UnramifiedLanglandsRep,
                     order: int = 8, *, drop_integrality: bool = False) -> VerificationReport:
    """Compare I(W_ess, W'_0, s) with L(pi, pi', s) exactly through t^order.

    Requires 1 <= m <= n-1, or m = n with an unramified representation.
    Also cross-checks that the two Euler-factor constructions agree as
    multisets before expanding.
    """
    n = rep.n
    m = pi_prime.rank
    r, _ = compute_piu(rep)
    if not (1 <= m <= n - 1 or (m == n and r == n)):
        raise BadRanks(f"need 1 <= m <= n-1 (or m = n unramified); got n={n}, m={m}, r={r}")
    factor = l_factor(rep, pi_prime)
    if factor != theorem_product(rep, pi_prime.satake):
        raise InvariantViolation("l_factor and theorem_product disagree")
    if factor.degree() != r * m:
        raise InvariantViolation(f"expected {r * m} Euler roots, found {factor.degree()}")
    lhs = rs_series(rep, pi_prime, order, drop_integrality=drop_integrality)
    rhs = euler_expand(factor, order)
    mismatch = series_equal(lhs, rhs, order)
    report = VerificationReport(
        passed=mismatch is None,
        degree_checked=order,
        first_mismatch=None if mismatch is None else (mismatch, lhs.coeffs[mismatch], rhs.coeffs[mismatch]),
        lhs_series=lhs,
        rhs_series=rhs,
        metadata={
            "n": n,
            "m": m,
            "r": r,
            "q": "symbolic" if rep.q is None else str(rep.q),
            "roots": "[" + ", ".join(str(c) for c in factor.sorted_roots()) + "]",
        },
    )
    return report


def cauchy_check(n: int, m: int, params_x: Sequence[Scalar],
                 params_y: Sequence[Scalar], order: int = 8) -> VerificationReport:
    """Unramified pairing identity: spherical-by-spherical integral vs Euler factor.

    Expands the lattice sum for a rank-n and a rank-m unramified pair and
    compares it with the expansion of the product over all x_i * y_j; this
    is the truncated Cauchy identity routed through the full engine.
    """
    params_x = tuple(Scalar.of(v) for v in params_x)
    params_y = tuple(Scalar.of(v) for v in params_y)
    if len(params_x) != n or len(params_y) != m:
        raise BadRanks("parameter lists must match the stated ranks")
    if not 1 <= m <= n:
        raise BadRanks(f"need 1 <= m <= n, got n={n}, m={m}")
    lhs = rs_series(UnramifiedLanglandsRep(params_x), UnramifiedLanglandsRep(params_y), order)
    rhs = euler_expand(EulerFactor(_root_products(params_x, params_y)), order)
    mismatch = series_equal(lhs, rhs, order)
    return VerificationReport(
        passed=mismatch is None,
        degree_checked=order,
        first_mismatch=None if mismatch is None else (mismatch, lhs.coeffs[mismatch], rhs.coeffs[mismatch]),
        lhs_series=lhs,
        rhs_series=rhs,
        metadata={"n": n, "m": m, "kind": "unramified-pairing"},
    )
