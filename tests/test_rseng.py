"""Series expansion of the local integrals and the main-identity verifier."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import whittaker.rseng as rseng
from whittaker.errors import BadRanks, Unsupported
from whittaker.repdata import UnramifiedLanglandsRep, compute_piu, parse_rep
from whittaker.ringcore import EulerFactor, Scalar, _h_convolution, euler_expand, u_power
from whittaker.rseng import (_int_lattice_series, cauchy_check, cauchy_term_count, l_factor,
                             rs_series, theorem_product, verify_essential)
from whittaker.suite import generate_suite, make_pi_prime
from whittaker.symfunc import Partition, complete_homogeneous, schur_ssyt_oracle
from whittaker.whitfun import delta_half, essential_value, spherical_value

STEINBERG = parse_rep({"q": "3", "segments": [
    {"kind": "unramified", "satake": "1/2", "length": 2}]})
ALL_RAMIFIED4 = parse_rep({"q": "2", "segments": [
    {"kind": "ramified", "id": "rho1", "degree": 2, "length": 2}]})
MIXED = parse_rep({"q": "3", "segments": [
    {"kind": "unramified", "satake": "1/2", "length": 2},
    {"kind": "ramified", "id": "rho1", "degree": 2, "length": 1},
    {"kind": "unramified", "satake": "3", "length": 1}]})
RANK2_UNRAM = parse_rep({"q": "3", "segments": [
    {"kind": "unramified", "satake": "2", "length": 2},
    {"kind": "unramified", "satake": "5", "length": 1}]})

W = Scalar.variable("w")


# --- l_factor / theorem_product ------------------------------------------------

def test_l_factor_trivial_for_fully_ramified():
    factor = l_factor(ALL_RAMIFIED4, UnramifiedLanglandsRep((W,)))
    assert factor.roots == ()
    series = euler_expand(factor, 4)
    assert series.coeffs[0] == Scalar.of(1)
    assert all(c.is_zero() for c in series.coeffs[1:])


def test_l_factor_two_tops_one_satake():
    factor = l_factor(MIXED, UnramifiedLanglandsRep((W,)))
    assert factor == EulerFactor([Scalar.rational(1, 2) * W, Scalar.of(3) * W])


def test_l_factor_one_top_two_satake():
    w1, w2 = Scalar.variable("w1"), Scalar.variable("w2")
    factor = l_factor(STEINBERG, UnramifiedLanglandsRep((w1, w2)))
    xi = Scalar.rational(1, 2)
    assert factor == EulerFactor([xi * w1, xi * w2])


def test_theorem_product_multiset_equality():
    w1, w2 = Scalar.variable("w1"), Scalar.variable("w2")
    for rep in (STEINBERG, MIXED, RANK2_UNRAM, ALL_RAMIFIED4):
        pp = UnramifiedLanglandsRep((w1, w2))
        assert theorem_product(rep, pp.satake) == l_factor(rep, pp)


def test_root_count_is_r_times_m():
    rng = random.Random(5)
    for rep in generate_suite(12):
        from whittaker.repdata import compute_piu

        r, _ = compute_piu(rep)
        for m in (1, 2):
            pp = make_pi_prime(m, rng)
            assert l_factor(rep, pp).degree() == r * m


# --- rs_series -------------------------------------------------------------------

def test_rs_series_steinberg_geometric():
    xi = Scalar.rational(1, 2)
    series = rs_series(STEINBERG, UnramifiedLanglandsRep((W,)), 3)
    expected = [(xi * W) ** k for k in range(4)]
    assert list(series.coeffs) == expected


def test_rs_series_fully_ramified_is_constant_one():
    for m in (1, 2, 3):
        pp = UnramifiedLanglandsRep(tuple(Scalar.of(v) for v in range(2, 2 + m)))
        series = rs_series(ALL_RAMIFIED4, pp, 5)
        assert series.coeffs[0] == Scalar.of(1)
        assert all(c.is_zero() for c in series.coeffs[1:])


def test_rs_series_unramified_two_by_one():
    z1, z2 = Scalar.variable("z1"), Scalar.variable("z2")
    series = rs_series(UnramifiedLanglandsRep((z1, z2)), UnramifiedLanglandsRep((W,)), 2)
    assert series.coeffs[1] == (z1 + z2) * W
    for k in range(3):
        assert series.coeffs[k] == complete_homogeneous(k, [z1 * W, z2 * W])
    assert series == euler_expand(EulerFactor([z1 * W, z2 * W]), 2)


def test_rs_series_rank_errors():
    with pytest.raises(BadRanks):
        rs_series(STEINBERG, UnramifiedLanglandsRep((W, W, W)), 3)
    with pytest.raises(Unsupported):
        # equal rank with a ramified left argument is out of scope
        rs_series(STEINBERG, UnramifiedLanglandsRep((W, W)), 3)


# --- verify_essential ----------------------------------------------------------

def test_verify_steinberg_passes():
    report = verify_essential(STEINBERG, UnramifiedLanglandsRep((W,)), 8)
    assert report.passed
    assert report.first_mismatch is None
    assert report.metadata["r"] == 1


def test_verify_fully_ramified_passes_with_both_sides_one():
    pp = UnramifiedLanglandsRep((Scalar.of(2), Scalar.of(3), Scalar.of(5)))
    report = verify_essential(ALL_RAMIFIED4, pp, 8)
    assert report.passed
    assert report.lhs_series.coeffs[0] == Scalar.of(1)
    assert all(c.is_zero() for c in report.lhs_series.coeffs[1:])
    assert report.rhs_series == report.lhs_series


def test_negative_control_indicator_removal():
    # m equal to the unramified rank r >= 2 is the regime where the lattice
    # indicator carries weight; dropping it must break the identity
    pp = UnramifiedLanglandsRep((Scalar.of(7), Scalar.rational(1, 11)))
    good = verify_essential(RANK2_UNRAM, pp, 6)
    assert good.passed
    bad = verify_essential(RANK2_UNRAM, pp, 6, drop_integrality=True)
    assert not bad.passed
    k, lhs_c, rhs_c = bad.first_mismatch
    assert k == 0
    assert lhs_c != rhs_c


def test_negative_control_is_invisible_off_the_critical_rank():
    # off m = r the indicator is redundant: for m > r the spherical factor's
    # dominance forces the lattice condition, for m < r the trailing zeros do
    pp3 = UnramifiedLanglandsRep((Scalar.of(7), Scalar.rational(1, 11), Scalar.of(13)))
    assert verify_essential(MIXED, pp3, 6, drop_integrality=True).passed  # m=3 > r=2
    pp1 = UnramifiedLanglandsRep((Scalar.of(7),))
    assert verify_essential(RANK2_UNRAM, pp1, 6, drop_integrality=True).passed  # m=1 < r=2


def test_verify_rank_precondition():
    with pytest.raises(BadRanks):
        verify_essential(STEINBERG, UnramifiedLanglandsRep((W, W)), 4)


# --- cauchy_check -----------------------------------------------------------------

def test_cauchy_rank_one():
    report = cauchy_check(1, 1, [Scalar.variable("z1")], [Scalar.variable("y1")], 5)
    assert report.passed
    z1y1 = Scalar.variable("z1") * Scalar.variable("y1")
    assert list(report.lhs_series.coeffs) == [z1y1 ** k for k in range(6)]


def test_cauchy_three_by_two_symbolic():
    xs = [Scalar.variable(f"x{i}") for i in range(1, 4)]
    ys = [Scalar.variable(f"y{i}") for i in range(1, 3)]
    assert cauchy_check(3, 2, xs, ys, 6).passed


def test_cauchy_equal_rank_branch():
    xs = [Scalar.variable(f"x{i}") for i in range(1, 3)]
    ys = [Scalar.variable(f"y{i}") for i in range(1, 3)]
    assert cauchy_check(2, 2, xs, ys, 6).passed


def test_cauchy_rank_validation():
    with pytest.raises(BadRanks):
        cauchy_check(1, 2, [Scalar.of(2)], [Scalar.of(3), Scalar.of(5)], 4)


# --- support / finiteness ----------------------------------------------------------

def test_no_nonpartition_weight_contributes():
    # every branch kills weights that are not partitions: non-dominant ones
    # die in the spherical factor, dominant ones with a negative tail die in
    # the embedded left value
    rng = random.Random(3)
    satake = [Scalar.of(v) for v in (2, 5, 7)]
    pp_vals = [Scalar.of(v) for v in (3, Fraction(1, 2))]
    for _ in range(200):
        weight = tuple(rng.randint(-3, 3) for _ in range(2))
        is_partition = weight[0] >= weight[1] >= 0
        if is_partition:
            continue
        dominant = weight[0] >= weight[1]
        if not dominant:
            assert spherical_value(pp_vals, weight).is_zero()
        else:
            # embedded weights acquire trailing zeros, breaking dominance
            assert spherical_value(satake, weight + (0,)).is_zero()
            assert essential_value(MIXED, weight + (0, 0)).is_zero()


# --- symbolic/numeric coherence -----------------------------------------------------

def test_symbolic_verification_coheres_with_numeric_substitution():
    rep = parse_rep({"q": "symbolic", "segments": [
        {"kind": "unramified", "satake": "a1", "length": 2},
        {"kind": "unramified", "satake": "a2", "length": 1}]})
    pp = UnramifiedLanglandsRep((Scalar.variable("w1"),))
    report = verify_essential(rep, pp, 6)
    assert report.passed
    rng = random.Random(17)
    for _ in range(5):
        point = {v: Fraction(rng.choice([x for x in range(-7, 8) if x]),
                             rng.randint(1, 5))
                 for v in ("u", "a1", "a2", "w1")}
        for lc, rc in zip(report.lhs_series.coeffs, report.rhs_series.coeffs):
            assert lc.substitute(point) == rc.substitute(point)


def test_cauchy_term_count_matches_series():
    # the count is an oracle for the multiply kernel that shares nothing
    # with it: a dropped or merged monomial changes the count
    for n in range(1, 4):
        xs = [Scalar.variable(f"x{i + 1}") for i in range(n)]
        for m in range(1, n + 1):
            ys = [Scalar.variable(f"y{j + 1}") for j in range(m)]
            report = cauchy_check(n, m, xs, ys, 6)
            assert report.passed
            for k, coeff in enumerate(report.lhs_series.coeffs):
                assert len(coeff.terms) == cauchy_term_count(n, m, k), (n, m, k)
    assert cauchy_term_count(4, 4, 8) == 27225
    assert cauchy_term_count(5, 5, 8) == 245025


# --- the integer path for rational values ---------------------------------------------

# Satake values and parameters: negatives, non-integral fractions, and a
# small pool so that values repeat
VALUES = st.one_of(
    st.sampled_from([-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]),
    st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool))
# u away from 0 and +-1, so a stray power of u changes the value
U_VALUES = st.sampled_from([2, -3, Fraction(1, 2), Fraction(-3, 2)])


def _canonical(coeffs):
    # an int when integral, never Fraction(k, 1)
    return all(not (isinstance(c, Fraction) and c.denominator == 1)
               for coeff in coeffs for c in coeff.terms.values())


def _symbolic_left(case, n, r):
    """The left argument over atoms a1..ar, with the same Schur rank r."""
    if case == "langlands":
        return UnramifiedLanglandsRep(tuple(Scalar.variable(f"a{i + 1}") for i in range(n)))
    segments = [{"kind": "unramified", "satake": f"a{i + 1}", "length": 1} for i in range(r)]
    if r < n:
        segments.append({"kind": "ramified", "id": "rho1", "degree": n - r, "length": 1})
    return parse_rep({"q": "symbolic", "segments": segments})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_integer_lattice_sum_matches_symbolic_series_at_a_point(data):
    # the essential side with r = 0, with 1 <= r < n and with m = n = r, and
    # an UnramifiedLanglandsRep left side; the symbolic series takes the
    # Scalar path, the rational values the integer one
    case = data.draw(st.sampled_from(["r=0", "r<n", "m=n=r", "langlands"]))
    n = data.draw(st.integers(2, 4))
    if case == "r=0":
        r, m = 0, data.draw(st.integers(1, n - 1))
    elif case == "r<n":
        r, m = data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, n - 1))
    elif case == "m=n=r":
        r = m = n
    else:
        r, m = n, data.draw(st.integers(1, n))
    order = data.draw(st.integers(0, 5))
    xs = [data.draw(VALUES) for _ in range(r)]
    ys = [data.draw(VALUES) for _ in range(m)]
    u = data.draw(U_VALUES)
    point = {"u": u, **{f"a{i + 1}": x for i, x in enumerate(xs)},
             **{f"b{j + 1}": y for j, y in enumerate(ys)}}
    pi_prime = UnramifiedLanglandsRep(tuple(Scalar.variable(f"b{j + 1}") for j in range(m)))
    symbolic = rs_series(_symbolic_left(case, n, r), pi_prime, order)
    numeric = _int_lattice_series(tuple(map(Scalar.of, xs)), n, tuple(map(Scalar.of, ys)), order)
    assert [c.substitute(point) for c in numeric.coeffs] == \
        [c.substitute(point) for c in symbolic.coeffs]
    assert _canonical(numeric.coeffs)


@settings(max_examples=40, deadline=None)
@given(st.lists(VALUES, max_size=6), st.integers(0, 6))
def test_integer_euler_expand_matches_scalar_convolution(roots, order):
    roots = [Scalar.of(v) for v in roots]
    series = euler_expand(EulerFactor(roots), order)
    assert list(series.coeffs) == _h_convolution(roots, order)
    assert _canonical(series.coeffs)


def test_rational_tuples_take_the_integer_path(monkeypatch):
    calls = {"seam": 0, "spherical": 0}
    seam, spherical = rseng._int_lattice_series, rseng.spherical_value

    def counted_seam(*args):
        calls["seam"] += 1
        return seam(*args)

    def counted_spherical(*args):
        calls["spherical"] += 1
        return spherical(*args)

    monkeypatch.setattr(rseng, "_int_lattice_series", counted_seam)
    monkeypatch.setattr(rseng, "spherical_value", counted_spherical)

    def path(left, satake, **kwargs):
        calls.update(seam=0, spherical=0)
        rs_series(left, UnramifiedLanglandsRep(satake), 4, **kwargs)
        assert calls["seam"] in (0, 1)
        return "integer" if calls["seam"] else "scalar" if calls["spherical"] else None

    rational = (Scalar.of(7), Scalar.rational(1, 11))
    mixed = (Scalar.of(7), W)
    unramified = parse_rep({"q": "3", "segments": [
        {"kind": "unramified", "satake": "2", "length": 1},
        {"kind": "unramified", "satake": "-1/5", "length": 1}]})
    assert path(RANK2_UNRAM, rational) == "integer"
    assert path(unramified, rational) == "integer"
    assert path(UnramifiedLanglandsRep(rational), rational[:1]) == "integer"
    assert path(RANK2_UNRAM, (W, Scalar.variable("w2"))) == "scalar"
    assert path(RANK2_UNRAM, mixed) == "scalar"
    assert path(UnramifiedLanglandsRep(mixed), rational) == "scalar"
    assert path(RANK2_UNRAM, rational, drop_integrality=True) == "integer"


# --- the integrality-indicator hook ---------------------------------------------------
#
# The oracle below sums the hook as its definition reads: over every dominant
# weight w of length m with entries >= -D, of the left value with the 1_O(a_r)
# factor removed, times the spherical value of pi', times the inverse modulus
# and the twist, with Schur values at weights with negative entries taken by
# the shift s_w = (prod x)^(-c) * s_(w + c).

def _dominant_weights(total, parts, floor):
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


def _laurent_spherical(variables, weight, cache):
    """delta_half(w) * s_w(variables) for a weight w, dominant or not."""
    if any(a < b for a, b in zip(weight, weight[1:])):
        return Scalar.of(0)
    c = max(0, -weight[-1]) if weight else 0
    key = (tuple(variables), weight)
    if key not in cache:
        shifted = schur_ssyt_oracle(Partition(x + c for x in weight), variables)
        prod = Scalar.of(1)
        for v in variables:
            prod = prod * v
        cache[key] = delta_half(weight, len(weight)) * shifted * prod ** -c
    return cache[key]


def _hook_oracle(rep, satake, order, depth):
    n = rep.n
    r, params = compute_piu(rep)
    m = len(satake)
    cache = {}
    coeffs = []
    for k in range(order + 1):
        total = Scalar.of(0)
        for w in _dominant_weights(k, m, -depth):
            if r == n:
                left = _laurent_spherical(params, w + (0,) * (n - m), cache)
            else:
                # W_ess at diag(a, 1): coordinates r..n-2 of a vanish, and
                # without the indicator coordinate r - 1 may be negative
                a = w + (0,) * (n - 1 - m)
                if any(a[r:]):
                    continue
                head = a[:r]
                left = _laurent_spherical(params, head, cache) * u_power(-(n - r) * sum(head))
            if left.is_zero():
                continue
            right = _laurent_spherical(satake, w, cache)
            total = total + left * right * delta_half(w, m) ** -2 * u_power((n - m) * k)
        coeffs.append(total)
    return coeffs


def _rep_with_tops(tops, n):
    """A rep of GL(n) whose unramified tops are the given atoms, one segment each."""
    segments = [{"kind": "unramified", "satake": str(x), "length": 1} for x in tops]
    if len(tops) < n:
        segments.append({"kind": "ramified", "id": "rho1", "degree": n - len(tops),
                         "length": 1})
    return parse_rep({"q": "symbolic", "segments": segments})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_integrality_hook_matches_its_definition(data):
    n = data.draw(st.integers(2, 4))
    r = data.draw(st.integers(0, n))
    m = data.draw(st.integers(1, n - 1))
    if data.draw(st.booleans(), label="symbolic"):
        tops = [f"a{i + 1}" for i in range(r)]
        satake = tuple(Scalar.variable(f"b{j + 1}") for j in range(m))
        order = data.draw(st.integers(0, 3))
    else:
        tops = [data.draw(VALUES) for _ in range(r)]
        satake = tuple(Scalar.of(data.draw(VALUES)) for _ in range(m))
        order = data.draw(st.integers(0, 4))
    rep = _rep_with_tops(tops, n)
    series = rs_series(rep, UnramifiedLanglandsRep(satake), order, drop_integrality=True)
    assert list(series.coeffs) == _hook_oracle(rep, satake, order, rseng._NEGATIVE_DEPTH)


def test_integrality_hook_at_full_rank_matches_its_definition():
    # m = r = n: the hook's weights (2, -2) and below reach the left side too
    for tops, satake in ((("2", "-1/3"), (Scalar.of(5), Scalar.rational(7, 2))),
                         (("a1", "a2"), (Scalar.variable("b1"), Scalar.variable("b2")))):
        rep = _rep_with_tops(tops, 2)
        series = rs_series(rep, UnramifiedLanglandsRep(satake), 3, drop_integrality=True)
        assert list(series.coeffs) == _hook_oracle(rep, satake, 3, rseng._NEGATIVE_DEPTH)
