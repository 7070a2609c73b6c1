"""Rankin-Selberg torus-sum engine.

Expands the local integral I(W, W', s) as a truncated power series in
t = q^(-s), builds the matching Euler factor, and compares the two exactly.
The torus measure is normalized so each lattice point contributes once
(vol(A_m(O)) = 1); this is the normalization under which the unramified
pairing identities hold with the standard spherical formula, and it is
pinned by cauchy_check.

Every power of u cancels in a lattice term (rs_series), so the lattice
sum is the Cauchy sum of the two tuples, sum_lam s_lam(params)
s_lam(satake) by degree, and the Euler factor's expansion is h_k of its
roots x_i * y_j (Macdonald I.(4.3)).  symfunc._cauchy_identity decides
the identity in one ring, chosen once per check, and hands back the lhs
series, the roots and the Euler side's coefficients when they differ: a
rational pair compares its sums with the Euler side in the ints of one
scale, and every other pair compares value-free integer matrices of its
shape, its lhs kept in orbit form (orbits.Orbits) when the check passes
on distinct atoms with every x name before every y name.  rs_series,
verify_essential and the integrality hook, which asks the ordinary
question through the shifted order, all read that one decision.  Here a
report is its two series, with its verdict read off them, and one
resolver, _pairing, holds the rank rules and the hook's shift.  A report
is printed by VerificationReport.write_summary, which writes each series'
text a piece at a time, never joined; a passing report reads no
coefficient, so an lhs in orbit form is printed from its form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Optional, Sequence, Tuple, Union

from .errors import BadRanks, Unsupported
from .repdata import GenericRep, UnramifiedLanglandsRep, compute_piu
from .ringcore import EulerFactor, Scalar, TruncatedSeries
from .symfunc import _cauchy_identity

LeftInput = Union[GenericRep, UnramifiedLanglandsRep]

# How far below zero the last weight entry may go once the integrality
# indicator is dropped (test hook of rs_series and verify_essential).
_NEGATIVE_DEPTH = 2


@dataclass
class VerificationReport:
    """Evidence object for one exact series comparison: two series through
    one order, and metadata.  The verdict is read off the series, and a
    passing check keeps one series object as both sides: an `is` test."""

    lhs_series: TruncatedSeries
    rhs_series: TruncatedSeries
    metadata: dict = field(default_factory=dict)

    @property
    def first_mismatch(self) -> Optional[Tuple[int, Scalar, Scalar]]:
        """(k, lhs coefficient, rhs coefficient) at the first t^k where the
        series differ, or None."""
        if self.rhs_series is not self.lhs_series:
            for k, (lc, rc) in enumerate(zip(self.lhs_series.coeffs, self.rhs_series.coeffs)):
                if lc != rc:
                    return k, lc, rc
        return None

    @property
    def passed(self) -> bool:
        return self.first_mismatch is None

    @property
    def degree_checked(self) -> int:
        return self.lhs_series.order

    def write_summary(self, write) -> None:
        """Write the report's lines, each ending in a newline, through calls
        of write(text): a series' text a piece at a time
        (TruncatedSeries.text_pieces), never joined, and a passing report's
        series formatted once for the lhs and rhs lines."""
        meta = " ".join(f"{k}={self.metadata[k]}" for k in sorted(self.metadata))
        if meta:
            write(meta + "\n")
        # printing is a function of the canonical value, so equal series
        # (every passing report) are printed once
        mismatch = self.first_mismatch
        lhs = self.lhs_series.text_pieces()
        rhs = lhs if mismatch is None else self.rhs_series.text_pieces()
        for label, pieces in (("lhs: ", lhs), ("rhs: ", rhs)):
            write(label)
            for piece in pieces:
                write(piece)
            write("\n")
        if mismatch is None:
            write(f"result: pass (exact through t^{self.degree_checked})\n")
        else:
            k, lc, rc = mismatch
            write(f"result: FAIL first_mismatch=t^{k} lhs={lc} rhs={rc}\n")

    def summary_lines(self) -> list:
        """The lines that write_summary writes, without their newlines."""
        chunks = []
        self.write_summary(chunks.append)
        return "".join(chunks).split("\n")[:-1]


def l_factor(rep: GenericRep, pi_prime: UnramifiedLanglandsRep) -> EulerFactor:
    """L(pi, pi', s) as an Euler factor.

    Only segments with unramified character tops contribute (every other
    pairing has trivial local factor), so the reciprocal roots are the r*m
    products of the unramified-part parameters with the Satake values of
    pi'.  r = 0 gives the empty product, i.e. L = 1.
    """
    return EulerFactor([x * y for x in compute_piu(rep)[1] for y in pi_prime.satake])


def theorem_product(rep: GenericRep, satake_prime: Sequence[Scalar]) -> EulerFactor:
    """Euler factor of the product of standard L-factors L(pi, s + s_j).

    Each Satake value w_j = q^(-s_j) rescales the reciprocal roots of the
    standard factor of pi; the result must equal l_factor as a multiset.
    """
    params = compute_piu(rep)[1]
    return EulerFactor([Scalar.of(w) * x for w in satake_prime for x in params])


def rs_series(left: LeftInput, pi_prime: UnramifiedLanglandsRep, order: int, *,
              drop_integrality: bool = False) -> TruncatedSeries:
    """Truncated expansion of the Rankin-Selberg integral in t = q^(-s).

    The coefficient of t^k sums, over partitions of k with at most m parts,
    the product of the left Whittaker value at the embedded weight, the
    spherical value of pi', the inverse Borel modulus, and the twist
    u^((n-m)|lambda|).  The support conditions of both factors force the
    index set to be exactly those partitions, and the left factor vanishes
    on those with more than r parts, so the sum runs over the partitions
    of k with at most min(r, m) parts.  Every power of u cancels in a
    term: the two delta_half factors, the essential twist u^(-(n-r)|lam|)
    and the inverse modulus with its twist u^((n-m)|lam|) put
    -(r-1-2i) - (n-r) - (m-1-2i) + (n+m-2-4i) = 0 on each part lam_i.  So
    the t^k coefficient is sum_lam s_lam(params) s_lam(satake'), the
    degree-k part of the Cauchy identity (Macdonald I.(4.3)), the lhs of
    symfunc._cauchy_identity, as in verify_essential.

    The left argument is a GenericRep or, on the spherical side, an
    UnramifiedLanglandsRep, at the ranks that _pairing admits.

    drop_integrality (test hook) removes the 1_O(a_r) factor from the
    essential function, so the index set grows to the dominant weights w
    of length m with entries >= -D, D = _NEGATIVE_DEPTH.  The left factor
    is 0 at every new weight unless m = r, so for m != r the hook is the
    ordinary series.  For m = r, w = mu - (D^m) for exactly one partition
    mu of |w| + D*m with at most m parts, and in m variables
    s_w = (x_1...x_m)^(-D) s_mu (the bialternant, Macdonald I.(3.1)).  The
    powers of u of a term add up to the same zero linear form on these
    weights too.  So the t^k coefficient of the hook is the t^(k + D*m)
    coefficient of the ordinary series times the unit
    (prod params * prod satake')^(-D) (_hooked).
    """
    _, _, params, shift = _pairing(left, pi_prime, drop_integrality)
    lhs = _cauchy_identity(params, pi_prime.satake, order + shift)[0]
    return _hooked(lhs, params, pi_prime.satake, order)


def _pairing(left: LeftInput, pi_prime: UnramifiedLanglandsRep, drop_integrality: bool) -> tuple:
    """(n, r, params, shift): the left argument's rank, unramified rank and
    parameters, and the integrality hook's shift of the series.  The one
    rank rule of every pairing with pi' of rank m: m <= n (else BadRanks),
    and m = n only for an unramified left argument, r = n (else
    Unsupported: for ramified pi the K-integral of W_ess is no torus sum).
    A spherical left argument refuses the hook, which shifts the series by
    D*m at m = r only (rs_series)."""
    m = pi_prime.rank
    if isinstance(left, GenericRep):
        n, (r, params) = left.n, compute_piu(left)
    elif isinstance(left, UnramifiedLanglandsRep):
        n, r, params = left.rank, left.rank, left.satake
    else:
        raise TypeError(f"unsupported left argument {type(left).__name__}")
    if m > n:
        raise BadRanks(f"pi' rank {m} exceeds n = {n}")
    if m == n and r != n:
        raise Unsupported("equal-rank integrals need an unramified left argument")
    if drop_integrality and not isinstance(left, GenericRep):
        raise Unsupported("the integrality hook applies to the essential-function side")
    return n, r, params, _NEGATIVE_DEPTH * m if drop_integrality and m == r else 0


def _hooked(sums: TruncatedSeries, params: Sequence[Scalar], satake: Sequence[Scalar],
            order: int) -> TruncatedSeries:
    """The series through t^order from the series of the Cauchy sums of
    params and satake through t^(order + shift): that series itself when
    shift is 0, and for the integrality hook's shift D*m (rs_series) the
    unit (prod params * prod satake)^(-D) times its t^(k + shift)
    coefficient at t^k."""
    shift = sums.order - order
    if not shift:
        return sums
    unit = Scalar.of(1)
    for v in (*params, *satake):
        unit = unit / v ** _NEGATIVE_DEPTH
    return TruncatedSeries(order, [unit * c for c in sums.coeffs[shift:]])


def _report(lhs: TruncatedSeries, rhs: Optional[list], metadata: dict) -> VerificationReport:
    """The report of lhs against rhs, the Euler side's coefficients through
    lhs.order, or None when _cauchy_identity found them equal; equal values
    are interchangeable, so a passing check keeps lhs as both series."""
    return VerificationReport(lhs, lhs if rhs is None else TruncatedSeries(lhs.order, rhs),
                              metadata)


def verify_essential(rep: GenericRep, pi_prime: UnramifiedLanglandsRep,
                     order: int = 8, *, drop_integrality: bool = False) -> VerificationReport:
    """Compare I(W_ess, W'_0, s) with L(pi, pi', s) exactly through t^order.

    rep is a GenericRep at the ranks that _pairing admits.  The Euler
    factor is l_factor's.  One ordinary decision, symfunc._cauchy_identity
    through t^(order + shift), gives both sides: the lhs is its sums,
    shifted by the integrality hook (_hooked), and the hook's rhs the
    first order + 1 coefficients of its Euler side, which are the sums
    themselves when the ordinary identity holds."""
    if not isinstance(rep, GenericRep):
        raise TypeError(f"verify_essential needs a GenericRep, not {type(rep).__name__}")
    n, r, params, shift = _pairing(rep, pi_prime, drop_integrality)
    lhs, roots, euler = _cauchy_identity(params, pi_prime.satake, order + shift)
    rhs = (euler or lhs.coeffs)[:order + 1] if shift else euler
    return _report(_hooked(lhs, params, pi_prime.satake, order), rhs, {
        "n": n,
        "m": pi_prime.rank,
        "r": r,
        "q": "symbolic" if rep.q is None else str(rep.q),
        "roots": "[" + ", ".join(EulerFactor(roots).root_texts()) + "]",
    })


def cauchy_check(n: int, m: int, params_x: Sequence[Scalar],
                 params_y: Sequence[Scalar], order: int = 8) -> VerificationReport:
    """Unramified pairing identity: spherical-by-spherical integral vs Euler factor.

    The truncated Cauchy identity for a rank-n and a rank-m unramified
    pair, through the same symfunc._cauchy_identity as verify_essential,
    at the ranks _pairing admits: 1 <= m <= n.
    """
    x, y = UnramifiedLanglandsRep(tuple(params_x)), UnramifiedLanglandsRep(tuple(params_y))
    if (x.rank, y.rank) != (n, m):
        raise BadRanks("parameter lists must match the stated ranks")
    _pairing(x, y, False)
    lhs, _, rhs = _cauchy_identity(x.satake, y.satake, order)
    return _report(lhs, rhs, {"n": n, "m": m, "kind": "unramified-pairing"})


def cauchy_term_count(n: int, m: int, k: int) -> int:
    """Number of monomials in the t^k coefficient of a symbolic cauchy_check.

    That coefficient is h_k of the products x_i * y_j, a sum of monomials
    x^a * y^b with positive coefficients: every pair of exponent vectors
    with |a| = |b| = k is the row and column sums of some n-by-m table, so
    there are C(k+n-1, n-1) * C(k+m-1, m-1) of them.
    """
    return comb(k + n - 1, n - 1) * comb(k + m - 1, m - 1)
