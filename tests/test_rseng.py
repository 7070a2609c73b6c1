"""Series expansion of the local integrals and the main-identity verifier."""

import collections
import dataclasses
import itertools
import json
import random
from fractions import Fraction
from operator import ge, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import whittaker.rseng as rseng
from whittaker import orbits, ringcore, symfunc
from whittaker.errors import BadRanks, Unsupported
from whittaker.packing import _add_product
from whittaker.repdata import UnramifiedLanglandsRep, compute_piu, parse_rep, parse_scalar_atom
from whittaker.ringcore import (EulerFactor, Scalar, TruncatedSeries, euler_expand, series_equal,
                                u_power)
from whittaker.rseng import (VerificationReport, cauchy_check, cauchy_term_count, l_factor,
                             rs_series, theorem_product, verify_essential)
from whittaker.suite import generate_suite, make_pi_prime, make_rep
from whittaker.symfunc import (Partition, _cauchy_sums, _order_ideal,
                               complete_homogeneous, partitions_up_to, schur, schur_ssyt_oracle)
from whittaker.whitfun import _delta_half_exponent, delta_half, essential_value, spherical_value

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
    # a spherical left: its rank below m, the integrality hook, and a left
    # argument of neither kind
    spherical = UnramifiedLanglandsRep((W,))
    with pytest.raises(BadRanks):
        rs_series(spherical, UnramifiedLanglandsRep((W, W)), 3)
    with pytest.raises(Unsupported):
        rs_series(spherical, spherical, 3, drop_integrality=True)
    with pytest.raises(TypeError):
        rs_series((W,), spherical, 3)


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
    assert good.rhs_series is good.lhs_series  # a passing report keeps one series
    bad = verify_essential(RANK2_UNRAM, pp, 6, drop_integrality=True)
    assert not bad.passed
    k, lhs_c, rhs_c = bad.first_mismatch
    assert k == 0
    assert lhs_c != rhs_c
    assert (bad.lhs_series.coeffs[k], bad.rhs_series.coeffs[k]) == (lhs_c, rhs_c)


def test_negative_control_is_invisible_off_the_critical_rank():
    # off m = r the indicator is redundant: for m > r the spherical factor's
    # dominance forces the lattice condition, for m < r the trailing zeros do
    pp3 = UnramifiedLanglandsRep((Scalar.of(7), Scalar.rational(1, 11), Scalar.of(13)))
    assert verify_essential(MIXED, pp3, 6, drop_integrality=True).passed  # m=3 > r=2
    pp1 = UnramifiedLanglandsRep((Scalar.of(7),))
    assert verify_essential(RANK2_UNRAM, pp1, 6, drop_integrality=True).passed  # m=1 < r=2


def test_verify_rank_precondition():
    # m = n with a ramified representation is out of scope, as in rs_series;
    # m > n is a bad pair of ranks
    with pytest.raises(Unsupported):
        verify_essential(STEINBERG, UnramifiedLanglandsRep((W, W)), 4)
    with pytest.raises(BadRanks):
        verify_essential(STEINBERG, UnramifiedLanglandsRep((W, W, W)), 4)


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
    with pytest.raises(BadRanks, match="must match the stated ranks"):
        cauchy_check(2, 1, [Scalar.of(2)], [Scalar.of(3)], 4)


def test_verify_refuses_a_left_argument_that_is_not_a_generic_rep():
    with pytest.raises(TypeError, match="UnramifiedLanglandsRep"):
        verify_essential(UnramifiedLanglandsRep((W, W)), UnramifiedLanglandsRep((W,)), 3)


# --- one rank rule (rseng._pairing) ----------------------------------------------

def _refusal(check):
    """The class of the rank error that check() raises, or None."""
    try:
        check()
    except (BadRanks, Unsupported) as exc:
        return type(exc)
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_rs_series_and_verify_admit_the_same_ranks(n, data):
    # m > n is BadRanks, m = n with a ramified representation Unsupported,
    # hook or not, for the series and the check alike
    r, m = data.draw(st.integers(0, n), label="r"), data.draw(st.integers(1, n + 1), label="m")
    drop = data.draw(st.booleans(), label="drop_integrality")
    rng = random.Random(data.draw(st.integers(0, 2 ** 16), label="seed"))
    rep, pi_prime = make_rep(n, r, Fraction(3), rng), make_pi_prime(m, rng)
    expected = BadRanks if m > n else Unsupported if m == n != r else None
    assert _refusal(lambda: rs_series(rep, pi_prime, 1, drop_integrality=drop)) is expected
    assert _refusal(lambda: verify_essential(rep, pi_prime, 1, drop_integrality=drop)) is expected


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.data())
def test_spherical_rs_series_and_cauchy_admit_the_same_ranks(n, m, data):
    rng = random.Random(data.draw(st.integers(0, 2 ** 16), label="seed"))
    x, y = make_pi_prime(n, rng), make_pi_prime(m, rng)
    expected = BadRanks if m > n else None
    assert _refusal(lambda: rs_series(x, y, 1)) is expected
    assert _refusal(lambda: cauchy_check(n, m, x.satake, y.satake, 1)) is expected


# --- a report is its two series --------------------------------------------------

def test_a_report_holds_only_its_two_series_and_metadata():
    assert [f.name for f in dataclasses.fields(VerificationReport)] == [
        "lhs_series", "rhs_series", "metadata"]


def test_a_passing_verdict_compares_no_coefficient(monkeypatch):
    # the verdict of a passing check, or of any report built with one series
    # object as both sides, is read off that object: no Scalar is compared
    reports = [verify_essential(RANK2_UNRAM, UnramifiedLanglandsRep((W, Scalar.of(7))), 5),
               cauchy_check(2, 2, (W, Scalar.of(2)), (Scalar.variable("y"), Scalar.of(3)), 5)]
    series = reports[-1].lhs_series
    reports.append(VerificationReport(series, series, {}))
    calls = []

    def spy(self, other):
        calls.append(self)
        return NotImplemented

    monkeypatch.setattr(Scalar, "__eq__", spy)
    for report in reports:
        assert (report.passed, report.first_mismatch, report.degree_checked) == (True, None, 5)
    assert calls == []


@pytest.mark.parametrize("at", ["first", "last"])
def test_a_failing_report_mismatches_first_where_the_series_differ(at):
    # lhs against a copy changed at k and at every later degree: the first
    # mismatch is k, at k = 0 and at k = order; an unchanged copy passes
    lhs = cauchy_check(2, 2, (W, Scalar.of(2)), (Scalar.variable("y"), Scalar.of(3)), 4).lhs_series
    k = 0 if at == "first" else lhs.order
    coeffs = [c + 1 if j >= k else c for j, c in enumerate(lhs.coeffs)]
    report = VerificationReport(lhs, TruncatedSeries(lhs.order, coeffs), {})
    assert report.first_mismatch == (k, lhs.coeffs[k], coeffs[k])
    assert (report.passed, report.degree_checked) == (False, 4)
    assert report.summary_lines()[-1] == (
        f"result: FAIL first_mismatch=t^{k} lhs={lhs.coeffs[k]} rhs={coeffs[k]}")
    assert VerificationReport(lhs, TruncatedSeries(lhs.order, lhs.coeffs), {}).passed


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


def test_lattice_u_exponents_cancel():
    # rs_series leaves u out: at every lattice point the two
    # delta_half exponents, the essential twist and the inverse modulus
    # with its twist u^((n - m)|lam|) add up to 0
    for n in range(1, 9):
        for r in range(n + 1):
            for m in range(1, n + 1):
                for shape in partitions_up_to(6, min(r, m)):
                    lam = shape.parts
                    modulus = sum(x * (n + m - 2 - 4 * i) for i, x in enumerate(lam))
                    total = (_delta_half_exponent(lam, r) - (n - r) * shape.size
                             + _delta_half_exponent(lam, m) + modulus)
                    assert total == 0, (n, r, m, shape)


_RATIONAL_VALUES = st.builds(Scalar.rational, st.integers(-9, 9), st.integers(1, 6))
_SYMBOLIC_VALUES = st.sampled_from([Scalar.variable("x1"), Scalar.variable("x2"),
                                    Scalar.variable("y1") ** -1, 2 * Scalar.variable("y2"),
                                    Scalar.variable("x1") - Scalar.variable("y1")])
_TUPLES = st.one_of(st.lists(_RATIONAL_VALUES, min_size=1, max_size=4),
                    st.lists(_SYMBOLIC_VALUES, min_size=1, max_size=3),
                    st.lists(st.one_of(_RATIONAL_VALUES, _SYMBOLIC_VALUES), min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@given(_TUPLES, _TUPLES, st.integers(0, 5))
def test_lattice_read_out_is_the_cauchy_sum(params, satake, order):
    # each coefficient is read off the two tables' slices of one degree;
    # the oracle sums Jacobi-Trudi products over the same partitions, for
    # rational, symbolic and mixed tuples on either side
    sums = _cauchy_sums(params, satake, order)
    length = min(len(params), len(satake))
    for k in range(order + 1):
        expected = Scalar.of(0)
        # the partitions of k with at most length parts, listed by brute force
        for parts in itertools.product(range(k + 1), repeat=length):
            if sum(parts) != k or any(a < b for a, b in zip(parts, parts[1:])):
                continue
            expected = expected + (schur(parts, params, "jacobi-trudi")
                                   * schur(parts, satake, "jacobi-trudi"))
        assert sums[k] == expected, k


# --- the in-place sums against the Scalar operator loops they replaced ---------------
#
# The Schur table fill (with the h convolution of euler_expand, its one-row
# case) and the lattice sum add products into terms maps in place
# (packing._add_product).  The oracles below are the same loops on Scalars,
# one operator per step.

def _operator_table(values, ideal, top=()):
    """The Schur table fill of symfunc._fill with a Scalar + and * per state and row."""
    xs, states = tuple(map(Scalar.of, values)), ideal[0]
    out = [Scalar.of(1)] + [Scalar.of(0)] * (len(states) - 1)
    # the states are zero-padded to the ideal's length
    n, length = len(xs), len(states[0])
    index = {mu: j for j, mu in enumerate(states)}
    # row i: the pairs (j, d) with states[d] = states[j] - e_i
    rows = [[(j, d) for j, mu in enumerate(states)
             if mu[i] and (d := index.get(mu[:i] + (mu[i] - 1,) + mu[i + 1:])) is not None]
            for i in range(length)]
    for k, x in enumerate(xs, 1):
        window = top[n - k:]
        for i in reversed(range(min(length, k))):
            row = rows[i]
            floor = window[1:i + 2] + window[i + 1:]
            if k < length or any(floor):
                row = [(j, d) for j, d in row
                       if (k >= length or not states[j][k]) and all(map(ge, states[d], floor))]
            for j, d in row:
                out[j] = out[j] + x * out[d]
    return out


def _operator_lattice(params, satake, order):
    ideal = _order_ideal((order,) * min(len(params), len(satake)), order)
    x, y, starts = _operator_table(params, ideal), _operator_table(satake, ideal), ideal[1]
    return [sum(map(mul, x[starts[k]:starts[k + 1]], y[starts[k]:starts[k + 1]]), Scalar.of(0))
            for k in range(order + 1)]


def _operator_h(roots, top):
    coeffs = [Scalar.of(1)] + [Scalar.of(0)] * top
    for x in roots:
        for k in range(1, top + 1):
            coeffs[k] = coeffs[k] + x * coeffs[k - 1]
    return coeffs


def _same(got, expected):
    # equal values: same terms, alphabet and width, so also the same hash
    return ([(c, c.names, hash(c)) for c in got]
            == [(c, c.names, hash(c)) for c in expected])


_a = Scalar.variable("a")
_WIDE = Scalar.variable("x1") ** 20000
# the non-atoms of _SYMBOLIC_VALUES, a Fraction coefficient, and a power
# of a whose lattice products at degree 4 need the wide layout when both
# tuples hold it
_IN_PLACE_VALUES = st.one_of(
    _RATIONAL_VALUES, _SYMBOLIC_VALUES,
    st.sampled_from([Scalar.rational(-2, 3) * Scalar.variable("x2"), _a, _a ** 5000]))
_IN_PLACE_TUPLES = st.lists(_IN_PLACE_VALUES, min_size=1, max_size=3)


@settings(max_examples=80, deadline=None)
@given(_IN_PLACE_TUPLES, _IN_PLACE_TUPLES, st.integers(0, 4))
@example([_a], [_a], 4)
@example([_a ** 5000], [_a ** 5000], 4)
@example([_a, Scalar.rational(1, 2)], [_a ** -1, Scalar.of(3)], 3)
@example([_WIDE, Scalar.variable("y1")], [Scalar.variable("x1") - Scalar.variable("y1")], 2)
def test_in_place_sums_match_the_operator_loops(params, satake, order):
    # symbolic, mixed and Fraction tuples, names shared by the two tuples,
    # and wide values, through all three rewritten loops
    assert _same(_cauchy_sums(params, satake, order), _operator_lattice(params, satake, order))
    roots = [x * y for x in params for y in satake if x and y]
    assert _same(euler_expand(EulerFactor(roots), order).coeffs, _operator_h(roots, order))
    for shape in partitions_up_to(order, len(params)):
        parts = shape.parts
        table = _operator_table(params, _order_ideal(parts, shape.size), parts)
        assert _same([schur(parts, params)], [table[-1]]), parts


_PAIR_TUPLES = st.one_of(_TUPLES, _IN_PLACE_TUPLES)


def _sums_off_at(k):
    """symfunc._lattice with its raw sum of degree k one more, in the int ring
    and the map ring alike."""
    lattice = symfunc._lattice

    def corrupted(xs, ys, top):
        ring, sums, roots = lattice(xs, ys, top)
        if ring[1] is None:
            sums[k] += 1
        else:
            # the unit monomial is the key 0 at every width
            _add_product(sums[k], {0: 1}, {0: 1})
        return ring, sums, roots

    return corrupted


def _products_off_at(k):
    """orbits.kostka_products with its first entry of degree k one more."""
    products = orbits.kostka_products

    def corrupted(*args):
        ms = products(*args)
        ms[k][0][0] += 1
        return ms

    return corrupted


@settings(max_examples=60, deadline=None)
@given(_PAIR_TUPLES, _PAIR_TUPLES, st.integers(0, 4), st.data())
@example([Scalar.of(2), Scalar.rational(-1, 3)], [Scalar.rational(1, 11)], 3, None)
@example([_a, Scalar.rational(1, 2)], [Scalar.of(3)], 3, None)
def test_cauchy_identity_decides_on_every_kind_of_pair(params, satake, order, data):
    # rational pairs decide in the ints of one scale, symbolic and mixed
    # ones in terms maps; a fault in one degree of the sums, in either ring,
    # must return the Euler side
    lhs, roots, rhs = symfunc._cauchy_identity(params, satake, order)
    assert _same(lhs.coeffs, _operator_lattice(params, satake, order))
    assert _same(roots, [x * y for x in params for y in satake])
    assert rhs is None
    k = data.draw(st.integers(0, order), label="k") if data else order
    lattice = symfunc._lattice
    symfunc._lattice = _sums_off_at(k)
    try:
        rhs = symfunc._cauchy_identity(params, satake, order)[2]
        assert rhs is not None and _same(rhs, _operator_h(roots, order))
    finally:
        symfunc._lattice = lattice


def test_one_ring_chooser_for_a_tuple_or_a_pair():
    # two rational tuples: ints, each tuple at its own scale and the ring at
    # the product of the scales, so a Cauchy check keeps the scale Dx * Dy
    ring, points = symfunc._ring(((Fraction(1, 2), 3), (Fraction(2, 3),)), 4)
    assert ring == (6, None, None, 0) and points == [[1, 6], [2]]
    assert symfunc._lattice((Fraction(1, 2), 3), (Fraction(2, 3),), 2)[0][0] == 6
    # a rational tuple beside a symbolic one: terms maps on the union
    # alphabet for both, split back into the two tuples' points
    xs, ys = (Fraction(1, 2), 3), (_a, Scalar.rational(2, 3) * _a ** -1)
    ring, points = symfunc._ring((xs, ys), 8)
    assert ring[:2] == (1, ("a",)) and [len(p) for p in points] == [2, 2]
    ring, sums, _ = symfunc._lattice(xs, ys, 4)
    assert _same(symfunc._read(ring, sums, range(5)), _operator_lattice(xs, ys, 4))


def test_in_place_h_convolution_of_a_wide_root():
    # x^40000 needs 32-bit fields; h_0 and h_1 fit in 16
    series = euler_expand(EulerFactor([_WIDE]), 2)
    assert _same(series.coeffs, _operator_h([_WIDE], 2))
    assert [c.variables() for c in series.coeffs] == [(), ("x1",), ("x1",)]


def test_verify_with_a_name_shared_by_the_rep_and_pi_prime(tmp_path, capsys):
    # top a against Satake' a: both tables are over the one alphabet (a),
    # so neither is moved, and each lattice product multiplies two powers of a
    from whittaker.cli import main

    document = {"q": "symbolic", "segments": [
        {"kind": "unramified", "satake": "a", "length": 1},
        {"kind": "ramified", "id": "rho1", "degree": 1, "length": 1}]}
    pi_prime = UnramifiedLanglandsRep((_a,))
    assert _same(rs_series(parse_rep(document), pi_prime, 5).coeffs,
                 _operator_lattice([_a], [_a], 5))
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(document))
    assert main(["verify", "--rep", str(path), "--satake-prime", "a", "--degree", "5"]) == 0
    out = capsys.readouterr().out
    assert "lhs: 1 + a^2*t + a^4*t^2" in out
    assert "numeric spot-check (seed 0): pass" in out


# --- symbolic/numeric coherence -----------------------------------------------------

def test_symbolic_verification_coheres_with_numeric_substitution():
    rep = parse_rep({"q": "symbolic", "segments": [
        {"kind": "unramified", "satake": "a1", "length": 2},
        {"kind": "unramified", "satake": "a2", "length": 1}]})
    pp = UnramifiedLanglandsRep((Scalar.variable("w1"),))
    report = verify_essential(rep, pp, 6)
    assert report.passed
    # a passing report keeps one series, so the Euler side is expanded here
    rhs = euler_expand(l_factor(rep, pp), 6)
    rng = random.Random(17)
    for _ in range(5):
        point = {v: Fraction(rng.choice([x for x in range(-7, 8) if x]),
                             rng.randint(1, 5))
                 for v in ("u", "a1", "a2", "w1")}
        for lc, rc in zip(report.lhs_series.coeffs, rhs.coeffs):
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


# --- the lattice sum against pointwise Whittaker products -----------------------------

# Satake values and parameters: negatives, non-integral fractions, and a
# small pool so that values repeat
VALUES = st.one_of(
    st.sampled_from([-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]),
    st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool))


def _canonical(coeffs):
    # an int when integral, never Fraction(k, 1)
    return all(not (isinstance(c, Fraction) and c.denominator == 1)
               for coeff in coeffs for c in coeff.terms.values())


def _pointwise_series(left, pi_prime, order):
    """The lattice sum as one product of whitfun values per partition.

    The t^k coefficient sums, over partitions lam of k with at most m
    parts, the left Whittaker value at lam, the spherical value of pi' at
    lam, the inverse Borel modulus delta_half(lam)^(-2) and the twist
    u^((n - m) k).
    """
    m = pi_prime.rank
    if isinstance(left, UnramifiedLanglandsRep):
        n, params, essential = left.rank, left.satake, False
    else:
        n, (_, params), essential = left.n, compute_piu(left), m < left.n
    coeffs = [Scalar.of(0)] * (order + 1)
    for lam in partitions_up_to(order, m):
        if essential:
            value = essential_value(left, lam.padded(n - 1))
        else:
            value = spherical_value(params, lam.padded(n))
        k = lam.size
        coeffs[k] = coeffs[k] + (value * spherical_value(pi_prime.satake, lam.padded(m))
                                 * delta_half(lam.padded(m), m) ** -2
                                 * u_power((n - m) * k))
    return coeffs


def _atoms_where(mask, rationals, name):
    """The values as strings: the atom name<i> where mask[i], else the i-th rational."""
    return [f"{name}{i + 1}" if atom else str(x)
            for i, (x, atom) in enumerate(zip(rationals, mask))]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lattice_sum_matches_pointwise_whittaker_products(data):
    # the essential side with r = 0, with 1 <= r < n and with m = n = r, and
    # an UnramifiedLanglandsRep left side; each shape with symbolic, rational
    # and mixed tuples, in both orientations
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
    x_mixed = data.draw(st.lists(st.booleans(), min_size=r, max_size=r))
    y_mixed = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
    x_atoms, x_rational = [True] * r, [False] * r
    y_atoms, y_rational = [True] * m, [False] * m
    for x_mask, y_mask in ((x_atoms, y_atoms), (x_atoms, y_rational), (x_rational, y_atoms),
                           (x_rational, y_rational), (x_mixed, y_mixed)):
        tops = _atoms_where(x_mask, xs, "a")
        if case == "langlands":
            left = UnramifiedLanglandsRep(tuple(map(parse_scalar_atom, tops)))
        else:
            left = _rep_with_tops(tops, n)
        pi_prime = UnramifiedLanglandsRep(tuple(map(parse_scalar_atom,
                                                    _atoms_where(y_mask, ys, "b"))))
        series = rs_series(left, pi_prime, order)
        assert list(series.coeffs) == _pointwise_series(left, pi_prime, order), (x_mask, y_mask)
        assert _canonical(series.coeffs)


@settings(max_examples=40, deadline=None)
@given(st.lists(VALUES, max_size=6), st.integers(0, 6))
def test_integer_euler_expand_matches_scalar_convolution(roots, order):
    roots = [Scalar.of(v) for v in roots]
    series = euler_expand(EulerFactor(roots), order)
    assert list(series.coeffs) == _operator_h(roots, order)
    assert _canonical(series.coeffs)


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


# --- the rational route against the Scalar route --------------------------------------
#
# A rational verify_essential or cauchy_check runs in the ints of one scale
# (symfunc._cauchy_identity) and builds Scalars only for its report.  The oracle is the
# Scalar route: series_equal on the Scalars of euler_expand, with the report
# made from its first mismatch, and the lattice sum as Scalar operator loops.

_Z = Scalar.variable("z")


def _oracle_report(lhs, factor, metadata):
    # a passing report keeps lhs as both series; a failing one mismatches
    # first where series_equal says
    rhs = euler_expand(factor, lhs.order)
    k = series_equal(lhs, rhs, lhs.order)
    report = VerificationReport(lhs, lhs if k is None else rhs, metadata)
    assert report.first_mismatch == (None if k is None else (k, lhs.coeffs[k], rhs.coeffs[k]))
    return report


def _mismatch_texts(report):
    if report.first_mismatch is None:
        return None
    k, lc, rc = report.first_mismatch
    return k, str(lc), str(rc)


def _assert_oracle_report(report, factor):
    expected = _oracle_report(report.lhs_series, factor, report.metadata)
    assert report.passed == expected.passed
    assert _mismatch_texts(report) == _mismatch_texts(expected)
    assert report.summary_lines() == expected.summary_lines()


@settings(max_examples=80, deadline=None)
@given(st.lists(VALUES, max_size=6), st.integers(0, 6), st.data())
def test_rational_comparison_matches_series_equal(roots, order, data):
    # the exact expansion, or one coefficient moved by a nonzero rational or
    # by a nonzero term in z (z^0 included), which leaves a z^e term's
    # constant term as it was
    factor = EulerFactor([Scalar.of(v) for v in roots])
    rhs = euler_expand(factor, order).coeffs
    coeffs = list(rhs)
    k = data.draw(st.integers(0, order))
    change = data.draw(st.sampled_from(["none", "rational", "symbolic"]))
    if change == "rational":
        coeffs[k] = coeffs[k] + Scalar.of(data.draw(VALUES))
    elif change == "symbolic":
        coeffs[k] = coeffs[k] + Scalar.of(data.draw(VALUES)) * _Z ** data.draw(st.integers(-2, 2))
    report = rseng._report(TruncatedSeries(order, coeffs), rhs, {"roots": len(roots)})
    assert report.passed == (change == "none")
    _assert_oracle_report(report, factor)


# ints, negative Fractions and large denominators; each check draws its
# values from a pool of at most three, so values repeat
_RATIONAL_ATOMS = st.one_of(
    VALUES,
    st.integers(-30, 30).filter(bool),
    st.fractions(min_value=-7, max_value=Fraction(-1, 12), max_denominator=12),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6).filter(bool),
              st.integers(10 ** 9, 10 ** 12)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rational_reports_match_series_equal(data):
    # r = 0 and m = n = r included; with the hook at m = r the series
    # shifts and the report fails
    pool = data.draw(st.lists(_RATIONAL_ATOMS, min_size=1, max_size=3, unique=True), label="pool")
    value = st.sampled_from(pool)
    n = data.draw(st.integers(2, 4))
    if data.draw(st.booleans(), label="full rank"):
        r = m = n
    else:
        r, m = data.draw(st.integers(0, n)), data.draw(st.integers(1, n - 1))
    order = data.draw(st.integers(0, 6))
    tops = [data.draw(value) for _ in range(r)]
    satake = tuple(Scalar.of(data.draw(value)) for _ in range(m))
    rep, pi_prime = _rep_with_tops(tops, n), UnramifiedLanglandsRep(satake)
    drop = data.draw(st.booleans(), label="drop_integrality")
    report = verify_essential(rep, pi_prime, order, drop_integrality=drop)
    _assert_oracle_report(report, l_factor(rep, pi_prime))
    if not drop:
        params = compute_piu(rep)[1]
        assert _same(report.lhs_series.coeffs, _operator_lattice(params, satake, order))
    xs = tuple(Scalar.of(data.draw(value)) for _ in range(n))
    report = cauchy_check(n, m, xs, satake, order)
    assert report.passed
    _assert_oracle_report(report, EulerFactor([x * y for x in xs for y in satake]))
    assert _same(report.lhs_series.coeffs, _operator_lattice(xs, satake, order))


def test_empty_single_root_and_failing_reports_match_series_equal():
    pp = UnramifiedLanglandsRep((Scalar.of(7), Scalar.rational(1, 11)))
    cases = [
        (ALL_RAMIFIED4, UnramifiedLanglandsRep((Scalar.of(2), Scalar.rational(-3, 5))), False),
        (STEINBERG, UnramifiedLanglandsRep((Scalar.rational(-4, 3),)), False),
        (RANK2_UNRAM, pp, True),  # the integrality hook at m = r fails at t^0
    ]
    for rep, pi_prime, drop in cases:
        report = verify_essential(rep, pi_prime, 6, drop_integrality=drop)
        assert report.passed != drop
        _assert_oracle_report(report, l_factor(rep, pi_prime))
    assert l_factor(ALL_RAMIFIED4, pp).roots == ()


def test_a_symbolic_coefficient_with_the_right_constant_term_is_a_mismatch():
    factor = EulerFactor([Scalar.rational(1, 2), Scalar.of(-3)])
    rhs = euler_expand(factor, 4).coeffs
    coeffs = list(rhs)
    coeffs[2] = coeffs[2] + _Z
    report = rseng._report(TruncatedSeries(4, coeffs), rhs, {})
    assert _mismatch_texts(report) == (2, "31/4 + z", "31/4")
    _assert_oracle_report(report, factor)


def test_symbolic_factors_keep_the_scalar_comparison():
    factor = EulerFactor([W, Scalar.rational(2, 3)])
    rhs = euler_expand(factor, 3).coeffs
    coeffs = list(rhs)
    assert rseng._report(TruncatedSeries(3, coeffs), rhs, {}).passed
    coeffs[3] = coeffs[3] + 1
    report = rseng._report(TruncatedSeries(3, coeffs), rhs, {})
    assert report.first_mismatch[0] == 3
    _assert_oracle_report(report, factor)


def test_a_fault_in_the_int_lattice_sums_fails_through_the_scalar_route(monkeypatch):
    # the int comparison sees L != V, and the report is made as the Scalar
    # route makes it, from the corrupted series
    monkeypatch.setattr(symfunc, "_lattice", _sums_off_at(3))
    pp = UnramifiedLanglandsRep((Scalar.of(7), Scalar.rational(1, 11)))
    xs = (Scalar.of(2), Scalar.rational(-1, 3))
    for report, factor in ((verify_essential(RANK2_UNRAM, pp, 6), l_factor(RANK2_UNRAM, pp)),
                           (cauchy_check(2, 2, xs, pp.satake, 6),
                            EulerFactor([x * y for x in xs for y in pp.satake]))):
        assert report.first_mismatch[0] == 3
        _assert_oracle_report(report, factor)


def test_each_report_fills_the_roots_table_once_at_its_order(monkeypatch):
    # the integrality hook at m = r, rational and symbolic, and a symbolic
    # check of distinct atoms whose orbit matrix is off at t^2: each report
    # fills the roots' one-row table at most once, at the order its one
    # decision ran at (order + 2m for the hook, whose distinct atoms pass
    # it on the orbit route with no fill), and shows the Euler factor's
    # expansion through its own order
    orders, h_values = [], symfunc._h_values

    def counted(points, order, ring):
        orders.append(order)
        return h_values(points, order, ring)

    monkeypatch.setattr(symfunc, "_h_values", counted)
    symbolic = _rep_with_tops(("a1", "a2"), 3)
    bs = UnramifiedLanglandsRep((Scalar.variable("b1"), Scalar.variable("b2")))
    pp = UnramifiedLanglandsRep((Scalar.of(7), Scalar.rational(1, 11)))
    for rep, pi_prime, order, drop, fills in ((RANK2_UNRAM, pp, 6, True, [10]),
                                              (symbolic, bs, 4, True, []),
                                              (symbolic, bs, 4, False, [4])):
        if not drop:
            # distinct atoms: the orbit route decides, on its matrices
            monkeypatch.setattr(orbits, "kostka_products", _products_off_at(2))
        orders.clear()
        report = verify_essential(rep, pi_prime, order, drop_integrality=drop)
        assert orders == fills
        assert not report.passed
        roots = [x * y for x in compute_piu(rep)[1] for y in pi_prime.satake]
        expected = euler_expand(EulerFactor(roots), order)
        assert str(report.rhs_series) == str(expected)
        assert _same(report.rhs_series.coeffs, expected.coeffs)


def _reads_of_passing_checks(monkeypatch, checks) -> list:
    """The number of raw values each check reads out as Scalars (symfunc._read),
    per read, with no Scalar multiplied and no euler_expand called; each
    check must pass, at order 6."""
    def refuse(*args):
        raise AssertionError("a Scalar of the Euler side was made, or Scalars multiplied")

    reads, read = [], symfunc._read

    def recorded(ring, values, sizes):
        out = read(ring, values, sizes)
        reads[-1].append(len(out))
        return out

    monkeypatch.setattr(ringcore, "euler_expand", refuse)
    monkeypatch.setattr(symfunc, "_read", recorded)
    monkeypatch.setattr(Scalar, "__mul__", refuse)
    monkeypatch.setattr(Scalar, "__rmul__", refuse)
    for check in checks:
        reads.append([])
        report = check()
        assert report.passed
        assert report.summary_lines()[-1] == "result: pass (exact through t^6)"
    return reads


def test_a_passing_rational_check_makes_no_scalar_of_the_euler_side(monkeypatch):
    # nor multiplies any Scalar: the roots, both sides and the comparison
    # are ints, and the report's Scalars are built as Scalar.rational; only
    # the order + 1 sums and the r*m roots are read out
    pp = UnramifiedLanglandsRep((Scalar.of(7), Scalar.rational(1, 11)))
    full_rank = _rep_with_tops(("2", "-1/3"), 2)
    reads = _reads_of_passing_checks(monkeypatch, [
        lambda: verify_essential(RANK2_UNRAM, pp, 6),
        lambda: verify_essential(ALL_RAMIFIED4, pp, 6),
        lambda: verify_essential(full_rank, UnramifiedLanglandsRep((Scalar.rational(5, 10 ** 12),
                                                                    Scalar.of(-3))), 6),
        # the integrality hook at m = 1 != r = 2 adds no shift
        lambda: verify_essential(MIXED, UnramifiedLanglandsRep((Scalar.of(7),)), 6,
                                 drop_integrality=True),
        lambda: cauchy_check(2, 2, (Scalar.of(2), Scalar.rational(-1, 3)), pp.satake, 6),
    ])
    assert reads == [[7, 4], [7, 0], [7, 4], [7, 2], [7, 4]]


def test_a_passing_symbolic_check_makes_no_scalar_of_the_euler_side(monkeypatch):
    # the map-ring twin of the rational test: the roots, both sides and the
    # comparison are raw terms maps, and only the order + 1 sums and the r*m
    # roots are read out as Scalars; distinct atoms whose x names sort
    # before their y names (a1, a2 against b1, b2) keep their sums by
    # orbits, so only their roots are read out
    symbolic = _rep_with_tops(("a1", "a2"), 3)
    bs = UnramifiedLanglandsRep((Scalar.variable("b1"), Scalar.variable("b2")))
    xs = [Scalar.variable(f"x{i}") for i in (1, 2, 3)]
    mixed = (Scalar.variable("b1"), Scalar.rational(-2, 3))
    reads = _reads_of_passing_checks(monkeypatch, [
        lambda: verify_essential(symbolic, bs, 6),
        lambda: verify_essential(symbolic, UnramifiedLanglandsRep(mixed), 6),
        lambda: verify_essential(MIXED, UnramifiedLanglandsRep((W,)), 6),
        lambda: cauchy_check(3, 2, xs, bs.satake, 6),
    ])
    assert reads == [[4], [7, 4], [7, 2], [7, 6]]


# --- writing a report ------------------------------------------------------------

def _written(report):
    chunks = []
    report.write_summary(chunks.append)
    return chunks


def _writer_reports():
    # passing and failing, symbolic and rational, and the integrality hook
    symbolic = _rep_with_tops(("a1", "a2"), 3)
    bs = UnramifiedLanglandsRep((Scalar.variable("b1"), Scalar.variable("b2")))
    pp = UnramifiedLanglandsRep((Scalar.of(7), Scalar.rational(1, 11)))
    xs = [Scalar.variable(f"x{i}") for i in (1, 2)]
    lhs = euler_expand(EulerFactor([W, Scalar.rational(-2, 3)]), 3)
    corrupted = list(lhs.coeffs)
    corrupted[2] = corrupted[2] - W ** 2
    return [
        verify_essential(symbolic, bs, 4),
        verify_essential(RANK2_UNRAM, pp, 6),
        cauchy_check(2, 2, xs, bs.satake, 5),
        verify_essential(symbolic, bs, 4, drop_integrality=True),
        verify_essential(RANK2_UNRAM, pp, 6, drop_integrality=True),
        rseng._report(TruncatedSeries(3, corrupted), lhs.coeffs, {}),
    ]


def test_write_summary_writes_the_summary_lines():
    # the lines as whole strings: metadata, both series, the result
    for report in _writer_reports():
        meta = " ".join(f"{k}={report.metadata[k]}" for k in sorted(report.metadata))
        lines = ([meta] if meta else []) + [f"lhs: {report.lhs_series}",
                                            f"rhs: {report.rhs_series}"]
        if report.passed:
            lines.append(f"result: pass (exact through t^{report.degree_checked})")
        else:
            k, lc, rc = report.first_mismatch
            lines.append(f"result: FAIL first_mismatch=t^{k} lhs={lc} rhs={rc}")
        assert report.summary_lines() == lines
        assert "".join(_written(report)) == "\n".join(lines) + "\n"
    assert [r.passed for r in _writer_reports()] == [True, True, True, False, False, False]


def test_a_passing_report_formats_its_series_once(monkeypatch):
    # the text kernel formats each coefficient's terms once, in one call for
    # the series, or for a series by orbits one call of the orbit printer,
    # and write receives the same piece objects on the lhs and rhs lines,
    # one at a time, never joined
    calls = []
    texts, orbit_texts = ringcore._texts, orbits.Orbits.texts

    def counted(values):
        calls.append(collections.Counter(map(id, values)))
        return texts(values)

    def by_orbits(form, order):
        calls.append(form)
        return orbit_texts(form, order)

    monkeypatch.setattr(ringcore, "_texts", counted)
    monkeypatch.setattr(orbits.Orbits, "texts", by_orbits)
    reports = _writer_reports()[:3]
    assert [report.lhs_series.form is not None for report in reports] == [True, False, False]
    for report in reports:
        calls.clear()
        chunks = _written(report)
        form = report.lhs_series.form
        assert calls == [form if form is not None
                         else collections.Counter(map(id, report.lhs_series.coeffs))]
        # [meta], "lhs: ", pieces, "\n", "rhs: ", pieces, "\n", result line
        lhs, rhs = chunks.index("lhs: "), chunks.index("rhs: ")
        pieces = chunks[lhs + 1:rhs - 1]
        assert len(pieces) > 1 and len(chunks[rhs + 1:-2]) == len(pieces)
        assert all(a is b for a, b in zip(pieces, chunks[rhs + 1:-2]))
        assert "".join(pieces) == str(report.lhs_series)


def test_a_series_is_written_a_block_of_terms_at_a_time(monkeypatch):
    # with blocks of 8 terms, the t^5 coefficient of a symbolic 3x3 check
    # (441 terms) is cut into pieces, and write never receives a string
    # longer than the text of one block: 8 terms with their signs
    from whittaker import packing

    xs = [Scalar.variable(f"x{i}") for i in (1, 2, 3)]
    ys = [Scalar.variable(f"y{i}") for i in (1, 2, 3)]
    report = cauchy_check(3, 3, xs, ys, 5)
    assert report.passed and len(report.lhs_series.coeffs[5].terms) == 441
    longest = max(len(str(Scalar.monomial(dict(mono), c)))
                  for coeff in report.lhs_series.coeffs for mono, c in coeff.iter_terms())
    lines = report.summary_lines()
    monkeypatch.setattr(packing, "_BLOCK", 8)
    chunks = _written(report)
    assert max(map(len, chunks)) <= packing._BLOCK * (longest + len(" + "))
    assert "".join(chunks).split("\n")[:-1] == lines


# --- distinct atoms: the orbit route ------------------------------------------------

def _distinct_atom_pair(data, n, m):
    """n and m distinct atoms, the x names all before the y names in sort
    order or interleaved with them, each tuple in a drawn order."""
    if data.draw(st.booleans(), label="interleaved"):
        names = data.draw(st.permutations([f"c{i}" for i in range(1, n + m + 1)]), label="names")
        xs, ys = names[:n], names[n:]
    else:
        xs = data.draw(st.permutations([f"x{i}" for i in range(1, n + 1)]), label="xs")
        ys = data.draw(st.permutations([f"y{i}" for i in range(1, m + 1)]), label="ys")
    return [Scalar.variable(v) for v in xs], [Scalar.variable(v) for v in ys]


@settings(max_examples=30, deadline=None)
@given(st.data())
@example(None)
def test_the_orbit_route_expands_the_lattice_sums(data):
    # the same ring, roots, keys and coefficients as _lattice, which fills
    # and multiplies terms maps, and every pair of exponent vectors of
    # degree k present
    if data is None:
        n, m, order = 5, 5, 8
        xs, ys = ([Scalar.variable(f"{v}{i}") for i in range(1, 6)] for v in "xy")
    else:
        n, m = data.draw(st.integers(2, 5), label="n"), data.draw(st.integers(2, 5), label="m")
        order = data.draw(st.integers(0, 8), label="order")
        xs, ys = _distinct_atom_pair(data, n, m)
    ring, form, roots, holds = symfunc._orbit_lattice(xs, ys, order)
    sums = orbits.expanded(form)
    assert holds and (ring, sums, roots) == symfunc._lattice(xs, ys, order)
    assert [len(terms) for terms in sums] == [cauchy_term_count(n, m, k) for k in range(order + 1)]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_the_orbit_route_prints_the_map_route_bytes(data):
    # verify and cauchy reports of drawn distinct atoms, and for n * m <= 9
    # the hooked verify, through the orbit route and through the map route
    # (the route refused), line for line; the map route's cost caps the
    # order of the larger pairs and of the hook, which decides through
    # order + 2m
    n, m = data.draw(st.integers(2, 5), label="n"), data.draw(st.integers(2, 5), label="m")
    order = data.draw(st.integers(0, 8 if n * m <= 9 else 4), label="order")
    xs, ys = _distinct_atom_pair(data, n, m)
    rep = _rep_with_tops([str(x) for x in xs], max(n, m) + 1)
    pi_prime = UnramifiedLanglandsRep(tuple(ys))
    longer, shorter = (xs, ys) if n >= m else (ys, xs)
    checks = [lambda: verify_essential(rep, pi_prime, order),
              lambda: cauchy_check(len(longer), len(shorter), longer, shorter, order)]
    if n * m <= 9:
        checks.append(lambda: verify_essential(rep, pi_prime, min(order, 4),
                                               drop_integrality=True))
    route, atoms = symfunc._orbit_lattice, symfunc._distinct_atoms
    taken = []
    try:
        symfunc._orbit_lattice = lambda *args: taken.append(args) or route(*args)
        printed = [check().summary_lines() for check in checks]
        symfunc._distinct_atoms = lambda *args: False
        assert [check().summary_lines() for check in checks] == printed
    finally:
        symfunc._orbit_lattice, symfunc._distinct_atoms = route, atoms
    assert len(taken) == len(checks)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_a_passing_orbit_report_prints_and_reads_as_its_expansion(data):
    # distinct atoms, every x name before every y name, each tuple in a
    # drawn order whose names do not sort in numeric order (x10 before x2):
    # the report keeps its lhs by orbits and prints it from that form, in
    # pieces of at most a block of terms, as the text kernel prints the
    # expanded series; the lhs, read, equals and hashes like the map
    # route's, which prints the same lines
    from whittaker import packing

    n, m = data.draw(st.integers(2, 5), label="n"), data.draw(st.integers(2, 5), label="m")
    order = data.draw(st.integers(0, 8 if n * m <= 9 else 5), label="order")
    xs, ys = ([Scalar.variable(f"{v}{i}") for i in data.draw(
        st.lists(st.integers(1, 12), min_size=size, max_size=size, unique=True), label=v)]
        for v, size in (("x", n), ("y", m)))
    rep = _rep_with_tops([str(x) for x in xs], max(n, m) + 1)
    checks = [lambda: verify_essential(rep, UnramifiedLanglandsRep(tuple(ys)), order)]
    if n >= m:
        checks.append(lambda: cauchy_check(n, m, xs, ys, order))
    block = data.draw(st.sampled_from([5, 64, packing._BLOCK]), label="block")
    for check in checks:
        report = check()
        lhs = report.lhs_series
        assert report.passed and lhs.form is not None
        saved, packing._BLOCK = packing._BLOCK, block
        try:
            pieces = lhs.text_pieces()
        finally:
            packing._BLOCK = saved
        # t^0, then " + (", the pieces, ")" and "*t^k" for each k, then O(...)
        assert len(pieces) >= 2 + 3 * order + sum(-(-cauchy_term_count(n, m, k) // block)
                                                   for k in range(1, order + 1))
        assert max(piece.count(" + ") + piece.count(" - ") for piece in pieces) <= block
        lines = report.summary_lines()
        atoms = symfunc._distinct_atoms
        symfunc._distinct_atoms = lambda *args: False
        try:
            plain = check()
        finally:
            symfunc._distinct_atoms = atoms
        assert plain.lhs_series.form is None and plain.summary_lines() == lines
        assert hash(lhs) == hash(plain.lhs_series) and lhs == plain.lhs_series
        assert _same(lhs.coeffs, plain.lhs_series.coeffs)
        assert "".join(pieces) == str(TruncatedSeries(order, lhs.coeffs)) == str(lhs)


def test_only_a_passing_report_in_name_order_is_printed_by_orbits(monkeypatch):
    # interleaved names, the integrality hook and a failing check keep
    # their lhs as Scalars, printed by the text kernel
    calls = []
    orbit_texts = orbits.Orbits.texts
    monkeypatch.setattr(orbits.Orbits, "texts",
                        lambda *args: calls.append(args) or orbit_texts(*args))
    xs = [Scalar.variable(f"x{i}") for i in (1, 2, 3)]
    ys = UnramifiedLanglandsRep(tuple(Scalar.variable(f"y{i}") for i in (1, 2)))
    cs = [Scalar.variable(f"c{i}") for i in range(1, 6)]
    rep = _rep_with_tops(("x1", "x2", "x3"), 4)
    for report in (cauchy_check(3, 2, xs, ys.satake, 4), verify_essential(rep, ys, 4)):
        assert report.passed and report.lhs_series.form is not None
        report.summary_lines()
    assert len(calls) == 2
    calls.clear()
    reports = [cauchy_check(3, 2, cs[::2], cs[1::2], 4),
               verify_essential(_rep_with_tops(("x1", "x2"), 3), ys, 3, drop_integrality=True)]
    monkeypatch.setattr(orbits, "kostka_products", _products_off_at(2))
    reports.append(cauchy_check(3, 2, xs, ys.satake, 4))
    assert [report.passed for report in reports] == [True, False, False]
    for report in reports:
        assert report.lhs_series.form is None
        report.summary_lines()
    assert calls == []


def test_only_distinct_atoms_take_the_orbit_route(monkeypatch):
    taken = []
    route = symfunc._orbit_lattice
    monkeypatch.setattr(symfunc, "_orbit_lattice",
                        lambda *args: taken.append(args) or route(*args))
    a, b, c, d = (Scalar.variable(v) for v in "abcd")
    for xs, ys in [((a, a), (b, c)),                       # a repeated atom
                   ((a, Scalar.rational(1, 2)), (b, c)),   # a rational
                   ((a, b), (b, c)),                       # a name of both tuples
                   ((a,), (b, c)), ((a, b, c), (d,)),      # min(n, m) = 1
                   ((a * a, b), (c, d)),                   # an exponent 2
                   ((Scalar.of(2) * a, b), (c, d))]:       # a coefficient 2
        lhs, roots, rhs = symfunc._cauchy_identity(xs, ys, 4)
        assert rhs is None and _same(lhs.coeffs, _operator_lattice(xs, ys, 4))
    assert taken == []
    # the integrality hook at m = r shifts the series, and its one ordinary
    # decision, through order + 2m, takes the route too
    rep = _rep_with_tops(("a1", "a2"), 3)
    bs = UnramifiedLanglandsRep((Scalar.variable("b1"), Scalar.variable("b2")))
    report = verify_essential(rep, bs, 3, drop_integrality=True)
    assert not report.passed and [args[2] for args in taken] == [3 + 2 * 2]
    assert symfunc._cauchy_identity((a, b), (c, d), 4)[2] is None
    report = verify_essential(rep, bs, 3)
    assert report.passed and len(taken) == 3


@pytest.mark.parametrize("k", [0, 3, 6])
def test_an_orbit_matrix_off_by_one_fails_at_its_degree(monkeypatch, k):
    # the lhs is that matrix expanded, and the rhs the Euler factor's
    # expansion, filled once for the failing check
    monkeypatch.setattr(orbits, "kostka_products", _products_off_at(k))
    xs = [Scalar.variable(f"x{i}") for i in (1, 2, 3)]
    ys = [Scalar.variable(f"y{i}") for i in (1, 2)]
    roots = [x * y for x in xs for y in ys]
    expected = euler_expand(EulerFactor(roots), 6)
    rep = _rep_with_tops(("x1", "x2", "x3"), 4)
    for report in (cauchy_check(3, 2, xs, ys, 6),
                   verify_essential(rep, UnramifiedLanglandsRep(tuple(ys)), 6)):
        mismatch = report.first_mismatch
        assert mismatch[0] == k
        # one more of each monomial of the orbits of (k) and (k), alpha and
        # beta first in their lists: m_(k)(x) * m_(k)(y)
        assert mismatch[1] - mismatch[2] == (sum(x ** k for x in xs) * sum(y ** k for y in ys)
                                             if k else 1)
        assert str(report.rhs_series) == str(expected)
        assert _same(report.rhs_series.coeffs, expected.coeffs)
