"""Segments, linkage validation, the unramified part, and derivatives."""

import itertools
import random
from fractions import Fraction

import pytest

from whittaker.errors import BadDegree, BadOrder, ConfigError, InvalidCharacter, NotGeneric
from whittaker.repdata import (
    GenericRep,
    Segment,
    UnramifiedLanglandsRep,
    compute_piu,
    derivative_subquotients,
    langlands_order,
    parse_rep,
    parse_scalar_atom,
    validate_unlinked,
    _q_power_exponent,
)
from whittaker.ringcore import Scalar
from whittaker.suite import generate_suite

from test_golden_output import REPS as GOLDEN_REPS

MIXED_CONFIG = {"q": "3", "segments": [
    {"kind": "unramified", "satake": "1/2", "length": 2},
    {"kind": "ramified", "id": "rho1", "degree": 2, "length": 1},
    {"kind": "unramified", "satake": "3", "length": 1},
]}


# --- validate_unlinked --------------------------------------------------------

def test_linked_adjacent_characters():
    a = Segment.unramified(1, 1)
    b = Segment.unramified(3, 1)
    result = validate_unlinked(a, b, Fraction(3))
    assert result.linked


def test_equal_segments_unlinked_by_containment():
    seg = Segment.unramified(1, 2)
    result = validate_unlinked(seg, seg)
    assert not result.linked
    assert "generic" not in result.reason


def test_symbolic_tops_generic_position():
    a = Segment.unramified(Scalar.variable("x1"), 2)
    b = Segment.unramified(Scalar.variable("x2"), 3)
    result = validate_unlinked(a, b)
    assert not result.linked
    assert "generic position" in result.reason


def test_interval_geometry_on_one_twist_line():
    # top 1, length 3 covers exponents {-2..0} on its twist line
    outer = Segment.unramified(1, 3)
    # top 3 sits at exponent -1: nested, hence unlinked
    nested = Segment.unramified(3, 1)
    assert not validate_unlinked(outer, nested, Fraction(3)).linked
    # top 1/9 sits at exponent +2: disjoint with a gap, hence unlinked
    far = Segment.unramified(Fraction(1, 9), 1)
    assert not validate_unlinked(outer, far, Fraction(3)).linked
    # top 27 sits at exponent -3: adjacent, hence linked
    adjacent = Segment.unramified(27, 1)
    assert validate_unlinked(outer, adjacent, Fraction(3)).linked


def test_ramified_linkage_is_id_based():
    a = Segment.ramified("rho1", 2, 2)
    b = Segment.ramified("rho2", 2, 1)
    assert not validate_unlinked(a, b).linked
    assert not validate_unlinked(a, Segment.ramified("rho1", 2, 1)).linked


def test_mixed_kinds_never_linked():
    a = Segment.unramified(1, 2)
    b = Segment.ramified("rho1", 1, 2)
    assert not validate_unlinked(a, b, Fraction(2)).linked


def _q_power_exponent_by_search(ratio, q):
    # the exponent e with ratio = q^e, found by dividing (or multiplying)
    # by q until the ratio crosses 1
    if ratio == 1:
        return 0
    if ratio <= 0 or q <= 1:
        return None
    d, r = 0, ratio
    while r > 1:
        r /= q
        d += 1
    if r == 1:
        return d
    d, r = 0, ratio
    while r < 1:
        r *= q
        d += 1
    return -d if r == 1 else None


def test_q_power_exponent_matches_the_search():
    qs = [Fraction(v) for v in ("2", "3", "4", "8", "3/2", "9/4", "5/3", "27/8", "1", "1/2",
                                "0", "-2")]
    for q in qs:
        ratios = {Fraction(0), Fraction(-1), Fraction(1), Fraction(2, 3), Fraction(-9, 4)}
        if q > 1:
            for k in range(-5, 6):
                power = q ** k
                ratios.update({power, -power, power * 2, power / 2, power * q.denominator,
                               power * q.numerator, power * Fraction(3, 2)})
        for ratio in ratios:
            assert _q_power_exponent(ratio, q) == _q_power_exponent_by_search(ratio, q), \
                (ratio, q)


# --- parse_rep ------------------------------------------------------------------

def test_parse_single_segment():
    rep = parse_rep({"q": "3", "segments": [
        {"kind": "unramified", "satake": "1/2", "length": 2}]})
    assert rep.n == 2


def test_parse_linked_pair_raises():
    with pytest.raises(NotGeneric) as err:
        parse_rep({"q": "3", "segments": [
            {"kind": "unramified", "satake": "1", "length": 1},
            {"kind": "unramified", "satake": "3", "length": 1}]})
    assert (err.value.i, err.value.j) == (0, 1)


def test_parse_mixed_rep_degree_sum():
    rep = parse_rep(MIXED_CONFIG)
    assert rep.n == 5


def test_parse_zero_satake():
    with pytest.raises((InvalidCharacter, ConfigError)):
        parse_rep({"q": "3", "segments": [
            {"kind": "unramified", "satake": "0", "length": 1}]})


def test_parse_degree_mismatch():
    bad = dict(MIXED_CONFIG, n=4)
    with pytest.raises(BadDegree):
        parse_rep(bad)


def test_parse_reserved_identifier():
    with pytest.raises(ConfigError):
        parse_scalar_atom("q")
    with pytest.raises(ConfigError):
        parse_scalar_atom("Bad")


def test_cuspidal_id_is_the_whole_string():
    # "rho\n" was read as an id of its own, unlinked from "rho", and printed
    # across two lines
    for cid in ("rho\n", "rho1\n", "rho "):
        with pytest.raises(ConfigError):
            parse_rep({"q": "3", "segments": [
                {"kind": "ramified", "id": cid, "degree": 1, "length": 1}]})


def test_numeric_q_is_a_json_integer_or_a_rational_string():
    # "1e5000" was read through Fraction, and its 5,001-digit value ended
    # verify in a traceback when the report's metadata printed it
    segments = [{"kind": "unramified", "satake": "2", "length": 1}]
    for q, value in ((3, 3), ("3", 3), (" +5/2 ", Fraction(5, 2)), ("10/4", Fraction(5, 2))):
        assert parse_rep({"q": q, "segments": segments}).q == value
    for q in ("1e5000", "1e5", "2.5", "2.", "0x10", "1_000", "٣", "3/", "1/0", "9" * 4301,
              2.5, 3.0, True, None, [3], {"q": 3}):
        with pytest.raises(ConfigError, match="cannot parse q value"):
            parse_rep({"q": q, "segments": segments})


# --- compute_piu / langlands_order ----------------------------------------------

def test_compute_piu_mixed():
    r, params = compute_piu(parse_rep(MIXED_CONFIG))
    assert r == 2
    assert params == (Scalar.rational(1, 2), Scalar.of(3))


def test_compute_piu_all_ramified():
    rep = parse_rep({"q": "3", "segments": [
        {"kind": "ramified", "id": "rho1", "degree": 2, "length": 1}]})
    assert compute_piu(rep) == (0, ())


def test_compute_piu_symbolic():
    rep = parse_rep({"q": "symbolic", "segments": [
        {"kind": "unramified", "satake": "x1", "length": 1}]})
    r, params = compute_piu(rep)
    assert r == 1 and params == (Scalar.variable("x1"),)


def test_langlands_order_examples():
    assert langlands_order([Scalar.of(3), Scalar.rational(1, 2)]) \
        == (Scalar.rational(1, 2), Scalar.of(3))
    symbolic = (Scalar.variable("x1"), Scalar.variable("x2"))
    assert langlands_order(symbolic) == symbolic
    ties = (Scalar.of(1), Scalar.of(1))
    assert langlands_order(ties) == ties


def test_langlands_order_is_permutation():
    values = [Scalar.of(v) for v in (3, Fraction(-1, 2), 2, Fraction(1, 2))]
    ordered = langlands_order(values)
    assert sorted(map(str, ordered)) == sorted(map(str, values))


def test_compute_piu_invariant_under_segment_order():
    base = parse_rep(MIXED_CONFIG)
    _, expected = compute_piu(base)
    for perm in itertools.permutations(base.segments):
        rep = GenericRep(perm, base.q)
        r, params = compute_piu(rep)
        assert r == 2
        assert sorted(map(str, params)) == sorted(map(str, expected))


def _piu_from_segments(rep):
    tops = tuple(s.top.value for s in rep.segments if s.kind == "unramified")
    return len(tops), langlands_order(tops)


@pytest.mark.parametrize("seed", [20260810, 7])
def test_compute_piu_matches_its_segments_on_the_suite(seed):
    for rep in generate_suite(72, seed):
        assert compute_piu(rep) == _piu_from_segments(rep)


def test_compute_piu_matches_its_segments_on_the_golden_reps():
    for config in GOLDEN_REPS.values():
        rep = parse_rep(config)
        assert compute_piu(rep) == _piu_from_segments(rep)


def test_representation_owns_its_unramified_part():
    # the unramified part is stored on the representation when it is built:
    # a repeated lookup returns the identical tuple, and the stored field
    # takes no part in equality, hashing or repr
    rep = GenericRep((Segment.unramified(Scalar.variable("own1"), 1),))
    assert compute_piu(rep) == (1, (Scalar.variable("own1"),))
    assert compute_piu(rep) is compute_piu(rep)
    a, b = parse_rep(MIXED_CONFIG), parse_rep(MIXED_CONFIG)
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a) == f"GenericRep(segments={a.segments!r}, q={a.q!r})"
    assert a != GenericRep(a.segments[:2], a.q)


# --- derivative_subquotients ------------------------------------------------------

def test_derivative_order_zero_is_identity():
    rep = parse_rep(MIXED_CONFIG)
    assert derivative_subquotients(rep, 0) == [rep.segments]


def test_derivative_of_steinberg_type():
    rep = parse_rep({"q": "3", "segments": [
        {"kind": "unramified", "satake": "1/2", "length": 2}]})
    subq = derivative_subquotients(rep, 1)
    assert subq == [(Segment.unramified(Scalar.rational(1, 2), 1),)]


def test_derivative_two_segments_at_order_one():
    rep = parse_rep({"q": "5", "segments": [
        {"kind": "unramified", "satake": "2", "length": 2},
        {"kind": "unramified", "satake": "3", "length": 1}]})
    subq = derivative_subquotients(rep, 1)
    assert len(subq) == 2
    spherical = [p for p in subq
                 if all(s.kind == "unramified" and s.length == 1 for s in p)]
    assert len(spherical) == 1
    values = sorted(str(s.top.value) for s in spherical[0])
    assert values == ["2", "3"]


def test_derivative_bad_order():
    rep = parse_rep(MIXED_CONFIG)
    with pytest.raises(BadOrder):
        derivative_subquotients(rep, rep.n + 1)
    with pytest.raises(BadOrder):
        derivative_subquotients(rep, -1)


def _drawn_reps(count, seed):
    # symbolic unramified tops and ramified cuspidals of degree up to 3, one
    # twist line per segment, so every draw is generic
    rng = random.Random(seed)
    reps = []
    for _ in range(count):
        segments = []
        for i in range(rng.randint(1, 4)):
            length = rng.randint(1, 3)
            if rng.random() < 0.5:
                segments.append(Segment.unramified(Scalar.variable(f"x{i}"), length))
            else:
                segments.append(Segment.ramified(f"rho{i}", rng.randint(1, 3), length))
        reps.append(GenericRep(tuple(segments)))
    return reps


DRAWN_REPS = _drawn_reps(60, 15)


def test_first_spherical_order_is_n_minus_r():
    # independent re-check of the assertion wired into the operation: scan
    # every order for products of unramified characters
    for rep in [*generate_suite(12), *DRAWN_REPS]:
        r, params = compute_piu(rep)
        first = None
        for j in range(rep.n + 1):
            hits = [p for p in derivative_subquotients(rep, j)
                    if all(s.kind == "unramified" and s.length == 1 for s in p)]
            if hits:
                first = j
                assert len(hits) == 1
                assert sorted(str(s.top.value) for s in hits[0]) \
                    == sorted(map(str, params))
                break
        assert first == rep.n - r


def _unpruned_subquotients(rep, order):
    # every tuple of derivative steps, cut only when its cost overshoots
    out = []

    def walk(idx, remaining, acc):
        if idx == len(rep.segments):
            if remaining == 0:
                out.append(tuple(acc))
            return
        seg = rep.segments[idx]
        for steps in range(seg.length + 1):
            cost = steps * seg.cuspidal_degree
            if cost > remaining:
                break
            kept = () if steps == seg.length else (
                Segment(seg.kind, seg.top, seg.cuspidal_id, seg.cuspidal_degree,
                        seg.length - steps),)
            walk(idx + 1, remaining - cost, acc + list(kept))

    walk(0, order, [])
    return out


def test_derivative_walk_matches_an_unpruned_walk():
    for rep in DRAWN_REPS:
        for j in range(rep.n + 1):
            assert derivative_subquotients(rep, j) == _unpruned_subquotients(rep, j), (rep, j)


def test_ramified_derivative_orders():
    # cuspidal degree 2, length 2: nonzero derivatives at 0, 2, 4 only
    rep = parse_rep({"q": "3", "segments": [
        {"kind": "ramified", "id": "rho1", "degree": 2, "length": 2}]})
    assert len(derivative_subquotients(rep, 0)) == 1
    assert derivative_subquotients(rep, 1) == []
    assert derivative_subquotients(rep, 2) == [(Segment.ramified("rho1", 2, 1),)]
    assert derivative_subquotients(rep, 3) == []
    assert derivative_subquotients(rep, 4) == [()]


# --- UnramifiedLanglandsRep ---------------------------------------------------------

def test_unramified_rep_validation():
    with pytest.raises(InvalidCharacter):
        UnramifiedLanglandsRep((Scalar.of(0),))
    rep = UnramifiedLanglandsRep((Scalar.of(2), Scalar.variable("w1")))
    assert rep.rank == 2
