"""Rankin-Selberg torus-sum engine.

Expands the local integral I(W, W', s) as a truncated power series in
t = q^(-s), builds the matching Euler factor, and compares the two exactly.
The torus measure is normalized so each lattice point contributes once
(vol(A_m(O)) = 1); this is the normalization under which the unramified
pairing identities hold with the standard spherical formula, and it is
pinned by cauchy_check.

The lattice sum multiplies the raw values of the two Schur branching
tables and groups them by their power of u, for every tuple alike: ints
for rational values, Scalars for symbolic ones, and an int times a Scalar
for a mixed pair.  One Scalar is built per power of u and coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from operator import mul
from typing import Optional, Sequence, Tuple, Union

from .errors import BadRanks, InvariantViolation, Unsupported
from .repdata import GenericRep, UnramifiedLanglandsRep, compute_piu
from .ringcore import (_ZERO, EulerFactor, Scalar, TruncatedSeries, euler_expand, series_equal,
                       u_power)
from .symfunc import _schur_table, partitions_of
from .whitfun import _delta_half_exponent, _essential_twist

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
        # printing is a function of the canonical value, so equal series
        # (every passing report) are printed once
        lhs = str(self.lhs_series)
        rhs = lhs if self.rhs_series == self.lhs_series else str(self.rhs_series)
        lines.append(f"lhs: {lhs}")
        lines.append(f"rhs: {rhs}")
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


def rs_series(left: LeftInput, pi_prime: UnramifiedLanglandsRep, order: int, *,
              drop_integrality: bool = False) -> TruncatedSeries:
    """Truncated expansion of the Rankin-Selberg integral in t = q^(-s).

    The coefficient of t^k sums, over partitions of k with at most m parts,
    the product of the left Whittaker value at the embedded weight, the
    spherical value of pi', the inverse Borel modulus, and the twist
    u^((n-m)|lambda|).  The support conditions of both factors force the
    index set to be exactly those partitions, and the left factor vanishes
    on those with more than r parts, so the sum runs over
    partitions_of(k, min(r, m)).  The power of u of each term is a linear
    form in lambda, read off once per call (_exponent_slopes).

    The left argument is a GenericRep (essential-function side, m <= n-1,
    or m = n when the representation is unramified) or an
    UnramifiedLanglandsRep of rank n >= m (spherical side; the equal-rank
    branch restricts to partitions through the lattice indicator).

    The sum is one table sum for every tuple (_lattice_series): in ints
    when both tuples are rational, in Scalars when both are symbolic, and
    an int times a Scalar per lattice point when one of them is rational.

    drop_integrality (test hook) removes the 1_O(a_r) factor from the
    essential function, so the index set grows to the dominant weights w
    of length m with entries >= -D, D = _NEGATIVE_DEPTH.  The left factor
    is 0 at every new weight unless m = r, so for m != r the hook is the
    ordinary series.  For m = r, w = mu - (D^m) for exactly one partition
    mu of |w| + D*m with at most m parts, and in m variables
    s_w = (x_1...x_m)^(-D) s_mu (the bialternant, Macdonald I.(3.1)); every
    u-exponent of the term is linear in the weight.  So the t^k
    coefficient of the hook is the t^(k + D*m) coefficient of the ordinary
    series times the unit u^(-D e(1^m)) (prod params * prod satake')^(-D),
    e as in _lattice_exponent.
    """
    m = pi_prime.rank
    satake_prime = pi_prime.satake
    if isinstance(left, GenericRep):
        n = left.n
        if m > n:
            raise BadRanks(f"pi' rank {m} exceeds n = {n}")
        r, params = compute_piu(left)
        if m == n and r != n:
            raise Unsupported("equal-rank integrals need an unramified left argument")
    elif isinstance(left, UnramifiedLanglandsRep):
        n = left.rank
        if m > n:
            raise BadRanks(f"pi' rank {m} exceeds n = {n}")
        if drop_integrality:
            raise Unsupported("the integrality hook applies to the essential-function side")
        r, params = n, left.satake
    else:
        raise TypeError(f"unsupported left argument {type(left).__name__}")
    shift = _NEGATIVE_DEPTH * m if drop_integrality and m == r else 0
    series = _lattice_series(params, n, satake_prime, order + shift)
    if not shift:
        return series
    unit = u_power(-_NEGATIVE_DEPTH * _lattice_exponent((1,) * m, n, r, m))
    for v in (*params, *satake_prime):
        unit = unit / v ** _NEGATIVE_DEPTH
    return TruncatedSeries(order, [unit * c for c in series.coeffs[shift:]])


def _modulus_exponent(weight: Sequence[int], n: int, m: int) -> int:
    # delta^(-1) * nu^(-(n-m)/2) on the torus point: delta^(-1) is
    # u^(2 * sum_i w_i (m - 1 - 2i)) and the twist is u^((n - m) * k);
    # trailing zeros of weight may be left out
    return sum(x * (n + m - 2 - 4 * i) for i, x in enumerate(weight))


def _lattice_exponent(parts: tuple, n: int, r: int, m: int) -> Optional[int]:
    """The u-exponent e(lam) of the lattice term at lam, or None where W_ess(lam) = 0.

    lam is the partition with the given parts, the left representation of
    GL(n) has unramified rank r and pi' rank m; e adds the exponents of
    both delta_half factors, the essential twist and the modulus, and is
    linear in lam where it is defined.
    """
    twist = _essential_twist(n, r, parts)
    if twist is None:
        return None
    return (_delta_half_exponent(parts, r) + twist + _delta_half_exponent(parts, m)
            + _modulus_exponent(parts, n, m))


def _exponent_slopes(n: int, r: int, m: int) -> list:
    """[e(1^(i+1)) - e(1^i) for i < min(r, m)], e = _lattice_exponent.

    e is linear where it is defined, so on a partition lam with at most
    min(r, m) parts e(lam) is the sum of slope_i * lam_i.
    """
    steps = [_lattice_exponent((1,) * i, n, r, m) for i in range(min(r, m) + 1)]
    return [b - a for a, b in zip(steps, steps[1:])]


def _lattice_series(params: Sequence[Scalar], n: int, satake: Sequence[Scalar],
                    order: int) -> TruncatedSeries:
    """rs_series as a sum over the raw values of two Schur tables.

    params are the r <= n unramified parameters of the left representation
    of GL(n) (r = n: an unramified one, whose essential function is its
    spherical function) and satake the m <= n Satake values of pi'.  The
    left value at lam is the spherical value of params times a power of u,
    with the support and the twist of whitfun._essential_twist: the index
    set is the partitions of k with at most min(r, m) parts.  The two Schur
    tables hold their values at D*params and E*satake (ints, with D and E
    the lcms of the denominators, for a rational tuple; Scalars, with scale
    1, otherwise), so the t^k coefficient is (DE)^(-k) times the sum, over
    those partitions lam, of the two tables' values times u^e(lam)
    (_lattice_exponent).  e is linear in lam, so it is read off once per
    call as the slopes of _exponent_slopes and summed against the parts.
    The values are grouped by e, so u enters once per group, not once per
    lattice point: an int group is one monomial, a Scalar group one
    product.
    """
    r, m = len(params), len(satake)
    length = min(r, m)
    slope = _exponent_slopes(n, r, m)
    scale_x, s_x = _schur_table(tuple(params)).scaled()
    scale_y, s_y = _schur_table(tuple(satake)).scaled()
    coeffs = []
    for k in range(order + 1):
        sums = {}                               # u exponent -> int or Scalar
        for parts in partitions_of(k, length):
            value = s_x(parts) * s_y(parts)
            if value:
                e = sum(map(mul, slope, parts))
                sums[e] = sums.get(e, 0) + value
        den = (scale_x * scale_y) ** k
        coeff = _ZERO
        for e, c in sorted(sums.items()):
            if c.__class__ is int:
                coeff = coeff + Scalar.monomial({"u": e}, Fraction(c, den))
            else:
                coeff = coeff + c * Scalar.monomial({"u": e}, Fraction(1, den))
        coeffs.append(coeff)
    return TruncatedSeries(order, coeffs)


def _report(lhs: TruncatedSeries, rhs: TruncatedSeries, order: int,
            metadata: dict) -> VerificationReport:
    mismatch = series_equal(lhs, rhs, order)
    return VerificationReport(
        passed=mismatch is None,
        degree_checked=order,
        first_mismatch=None if mismatch is None else (mismatch, lhs.coeffs[mismatch], rhs.coeffs[mismatch]),
        lhs_series=lhs,
        rhs_series=rhs,
        metadata=metadata,
    )


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
    return _report(lhs, euler_expand(factor, order), order, {
        "n": n,
        "m": m,
        "r": r,
        "q": "symbolic" if rep.q is None else str(rep.q),
        "roots": "[" + ", ".join(str(c) for c in factor.sorted_roots()) + "]",
    })


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
    return _report(lhs, rhs, order, {"n": n, "m": m, "kind": "unramified-pairing"})


def cauchy_term_count(n: int, m: int, k: int) -> int:
    """Number of monomials in the t^k coefficient of a symbolic cauchy_check.

    That coefficient is h_k of the products x_i * y_j, a sum of monomials
    x^a * y^b with positive coefficients: every pair of exponent vectors
    with |a| = |b| = k is the row and column sums of some n-by-m table, so
    there are C(k+n-1, n-1) * C(k+m-1, m-1) of them.
    """
    return comb(k + n - 1, n - 1) * comb(k + m - 1, m - 1)
