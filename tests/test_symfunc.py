"""Partitions, Schur polynomials, and the combinatorial cross-checks."""

import itertools
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from whittaker.errors import UnsupportedWeight
from whittaker.ringcore import EulerFactor, Scalar, euler_expand
from whittaker import symfunc
from whittaker.symfunc import (
    Partition,
    complete_homogeneous,
    partitions_up_to,
    schur,
    schur_ssyt_oracle,
    ssyt_tableaux,
)

X = [Scalar.variable(f"x{i}") for i in range(1, 5)]
Y = [Scalar.variable(f"y{i}") for i in range(1, 5)]


# --- independent counting oracle ---------------------------------------------

@lru_cache(maxsize=None)
def _count_partitions(total, max_parts):
    """Number of partitions of total into at most max_parts parts."""
    if total == 0:
        return 1
    if max_parts == 0:
        return 0
    return _count_partitions(total, max_parts - 1) + _count_partitions(total - max_parts, max_parts) \
        if total >= max_parts else _count_partitions(total, total)


def test_count_oracle_sanity():
    # p(n) for n = 0..7 with unbounded parts: 1 1 2 3 5 7 11 15
    assert [_count_partitions(n, n) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]


def _brute_partitions(total, max_parts):
    """Partitions of total into at most max_parts parts, reverse-lexicographically."""
    found = [tuple(reversed(parts)) for length in range(min(total, max_parts) + 1)
             for parts in itertools.combinations_with_replacement(range(1, total + 1), length)
             if sum(parts) == total]
    return sorted(found, reverse=True)


# --- partitions_up_to --------------------------------------------------------

def test_partitions_trivial():
    assert partitions_up_to(0, 3) == [Partition(())]


def test_partitions_order():
    got = [p.parts for p in partitions_up_to(3, 2)]
    assert got == [(), (1,), (2,), (1, 1), (3,), (2, 1)]


def test_partitions_count_against_oracle():
    # The enumerator and the memoized counter are independent; the frozen
    # value for bound 6, at most 4 parts is 27.
    total = sum(_count_partitions(k, 4) for k in range(7))
    assert total == 27
    assert len(partitions_up_to(6, 4)) == total


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 7), st.integers(0, 5))
def test_partitions_grid_against_oracle(bound, parts):
    listed = partitions_up_to(bound, parts)
    assert len(listed) == len(set(listed))
    assert len(listed) == sum(_count_partitions(k, parts) for k in range(bound + 1))
    for p in listed:
        assert p.size <= bound and p.length <= parts


def test_partitions_equal_a_brute_force_listing():
    # element for element and in order, including max_parts > size_bound
    for bound in range(8):
        for parts in range(10):
            assert [p.parts for p in partitions_up_to(bound, parts)] == \
                [mu for k in range(bound + 1) for mu in _brute_partitions(k, parts)], (bound, parts)


def test_partition_validation():
    with pytest.raises(UnsupportedWeight):
        Partition((1, 2))
    with pytest.raises(UnsupportedWeight):
        Partition((1, -1))
    assert Partition((2, 1, 0, 0)).parts == (2, 1)


# --- complete homogeneous ----------------------------------------------------

def test_h_examples():
    assert complete_homogeneous(0, X) == Scalar.of(1)
    assert complete_homogeneous(2, X[:2]) == X[0] ** 2 + X[0] * X[1] + X[1] ** 2
    assert complete_homogeneous(3, X[:1]) == X[0] ** 3
    # no variables: only the empty monomial, of degree 0
    assert complete_homogeneous(0, []) == Scalar.of(1)
    assert complete_homogeneous(1, []) == Scalar.of(0)
    assert complete_homogeneous(4, []) == Scalar.of(0)


# --- schur examples ----------------------------------------------------------

def test_schur_empty_shape():
    assert schur((), X[:2]) == Scalar.of(1)


def test_schur_single_box():
    assert schur((1,), X[:3]) == X[0] + X[1] + X[2]


def test_schur_21_two_vars():
    expected = X[0] ** 2 * X[1] + X[0] * X[1] ** 2
    assert schur((2, 1), X[:2]) == expected
    assert schur_ssyt_oracle((2, 1), X[:2]) == expected


def test_ssyt_oracle_examples():
    assert schur_ssyt_oracle((1, 1), X[:2]) == X[0] * X[1]
    assert schur_ssyt_oracle((2,), X[:2]) == X[0] ** 2 + X[0] * X[1] + X[1] ** 2
    assert sum(1 for _ in ssyt_tableaux((2, 1), 3)) == 8


def test_schur_length_vanishing_flag():
    for algorithm in symfunc.ALGORITHMS:
        assert schur((1, 1, 1), X[:2], algorithm).is_zero()


@pytest.mark.parametrize("shape", [(1,), (1, 1, 1)])
def test_schur_rejects_an_unknown_algorithm_at_every_length(shape):
    # the name is checked before the vanishing shortcut for shapes longer
    # than the variable list
    with pytest.raises(ValueError, match="unknown algorithm"):
        schur(shape, X[:1], "nope")


# --- cross-algorithm agreement (small grid; acceptance runs the full one) ----

@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_triple_agreement_small(nvars):
    variables = X[:nvars]
    for shape in partitions_up_to(4, 4):
        br = schur(shape, variables, "branching")
        jt = schur(shape, variables, "jacobi-trudi")
        bi = schur(shape, variables, "bialternant")
        tab = schur_ssyt_oracle(shape, variables)
        assert br == jt == bi == tab, f"disagreement at {shape}"


def test_oracles_sum_without_the_add_operator(monkeypatch):
    # each oracle makes its value in one kernel sum (ringcore._sum), so none
    # of them may call Scalar's + on its way to the branching value
    values = [X[0], Scalar.variable("u") * X[1], X[2] ** -1, X[3] - X[0]]
    expected = {shape: schur(shape, values) for shape in [(3, 2, 1), (2, 2)]}

    def refuse(self, other):
        raise AssertionError("Scalar + called")

    monkeypatch.setattr(Scalar, "__add__", refuse)
    monkeypatch.setattr(Scalar, "__radd__", refuse)
    for shape, value in expected.items():
        assert schur(shape, values, "jacobi-trudi") == value
        assert schur(shape, values, "bialternant") == value
        assert schur_ssyt_oracle(shape, values) == value


def test_jacobi_trudi_makes_no_product_with_a_constant(monkeypatch):
    # each term of the determinant multiplies its h's from the first factor
    # on and is negated for an odd permutation: no kernel pass multiplies by
    # a sign or by h_0 = 1
    expected = {shape: schur(shape, X) for shape in [(), (2, 1), (2, 2, 1)]}
    constants = []
    real_mul = Scalar.__mul__

    def spy(self, other):
        constants.extend(v for v in (self, other) if Scalar.of(v).is_rational())
        return real_mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", spy)
    monkeypatch.setattr(Scalar, "__rmul__", spy)
    for shape, value in expected.items():
        assert schur(shape, X, "jacobi-trudi") == value
        assert constants == [], shape


_U = Scalar.variable("u")
_RATIONALS = st.builds(Scalar.rational, st.integers(-9, 9), st.integers(1, 6))
_LAURENT = st.sampled_from([X[0], X[1], _U * X[0], X[0] ** -1, _U ** -1 * X[1] ** 2,
                            X[0] - X[1], 3 * X[1]])


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.lists(_RATIONALS, max_size=4),
                 st.lists(st.one_of(_RATIONALS, _LAURENT), max_size=4))
       .flatmap(lambda vs: st.tuples(st.just(vs), st.sampled_from(partitions_up_to(6, len(vs))))))
@example(([Scalar.rational(i % 5 - 2, i % 3 + 1) for i in range(6)], (8, 6, 4, 2)))
@example(([Scalar.rational(i % 5 - 2, i % 3 + 1) for i in range(9)], (12, 8, 5, 3, 1)))
def test_branching_matches_jacobi_trudi(case):
    # rational tuples run the table in integers at D*x; any other tuple runs
    # it on Scalars; zeros, negatives, non-integral fractions, repeated and
    # Laurent values all reach it.  The examples are long shapes on short
    # rational tuples, whose int fill the window toward the shape narrows
    values, shape = case
    value = schur(shape, values, "branching")
    assert value == schur(shape, values, "jacobi-trudi")
    if all(v.is_rational() for v in values):
        assert value.is_rational()


@settings(max_examples=20, deadline=None)
@given(st.one_of(st.lists(_RATIONALS, max_size=5),
                 st.lists(_LAURENT, max_size=5),
                 st.lists(st.one_of(_RATIONALS, _LAURENT), max_size=5)),
       st.data())
def test_branching_table_in_any_access_order(values, data):
    # one fill covers the whole order ideal of shapes up to size 7, so every
    # order of reads (full-column shapes among them) must find the same
    # values; a fresh table, not the cached one, is filled from nothing
    ideal = symfunc._order_ideal((7,) * len(values), 7)
    states = ideal[0]
    ring, (points,) = symfunc._ring((values,), 7)
    table = symfunc._fill(points, ideal, ring)
    shapes = data.draw(st.permutations(partitions_up_to(7, len(values))))
    assert len(states) == len(shapes) == \
        sum(_count_partitions(k, len(values)) for k in range(8))
    for shape in shapes:
        value = table[states.index(shape.padded(len(values)))]
        assert symfunc._read(ring, [value], [shape.size])[0] == \
            schur(shape, values, "jacobi-trudi"), shape


def test_integral_fractions_fill_in_ints():
    # Fraction(2, 1) is an integral value: the tables of a tuple holding it,
    # and a lattice on such tuples, run in Python ints
    ring, (points,) = symfunc._ring(((Fraction(2, 1), 3),), 3)
    table = symfunc._h_values(points, 3, ring)
    assert table == [1, 5, 19, 65]
    assert all(type(v) is int for v in table)
    ring, sums, roots = symfunc._lattice((Fraction(2, 1), 3), (Fraction(-4, 1),), 3)
    assert ring[:2] == (1, None)
    assert all(type(v) is int for v in sums + roots)
    assert schur((2, 1), (Fraction(2, 1), 3, Fraction(1, 1))) == \
        schur((2, 1), (2, 3, 1), "jacobi-trudi")


def test_branching_fill_of_a_120_value_rational_tuple_matches_jacobi_trudi():
    # the fill is iterative: a wide rational tuple goes through it in the
    # lcm-scaled ints and agrees with the determinant formula
    values = [Scalar.rational(i % 7 - 3, i % 5 + 1) for i in range(120)]
    assert schur((2, 1), values) == schur((2, 1), values, "jacobi-trudi")


@pytest.mark.parametrize("shape", [(2, 1), (4, 4, 2, 2)])
def test_branching_on_thousands_of_rational_values(shape):
    # the fill is iterative, so the width of the tuple is bounded by time
    # and memory, not by the recursion limit
    values = [Scalar.rational(i % 11 - 5, i % 6 + 1) for i in range(2000)]
    assert schur(shape, values) == schur(shape, values, "jacobi-trudi")


def test_order_ideal_state_counts():
    # below a shape: the 429 partitions inside the staircase (6,5,4,3,2,1),
    # not every partition of size <= 21
    staircase = (6, 5, 4, 3, 2, 1)
    assert len(symfunc._order_ideal(staircase, sum(staircase))[0]) == 429
    # the lattice ideal: every partition of size <= order with <= L parts,
    # one slice per size
    for order in range(9):
        for length in range(5):
            states, starts, _ = symfunc._order_ideal((order,) * length, order)
            assert len(states) == sum(_count_partitions(k, length)
                                      for k in range(order + 1))
            for k in range(order + 1):
                listed = states[starts[k]:starts[k + 1]]
                assert len(listed) == _count_partitions(k, length)
                assert all(len(mu) == length and sum(mu) == k for mu in listed)
                assert listed == sorted(set(listed), reverse=True)


def _rows(states):
    """Row i lists, in the order of j, the pairs (j, d) with states[d] = states[j] - e_i.

    The states are zero-padded to the ideal's length, so states[0] has it.
    """
    index = {mu: j for j, mu in enumerate(states)}
    return [[(j, d) for j, mu in enumerate(states)
             if mu[i] and (d := index.get(mu[:i] + (mu[i] - 1,) + mu[i + 1:])) is not None]
            for i in range(len(states[0]))]


def _filtered_sweeps(ideal, k):
    """The rows step k of a fill sweeps, last row first, filtered per call.

    Rows 0..k-1 over the states with at most k parts while k < len(cap),
    and every row whole after that: the filter each fill once ran for
    itself, kept here as the oracle of the ideal's stored sweeps.
    """
    states = ideal[0]
    length, rows = len(states[0]), _rows(states)
    return [[(j, d) for j, d in rows[i] if k >= length or not states[j][k]]
            for i in reversed(range(min(length, k)))]


def test_stored_sweeps_are_the_per_call_filter():
    for bound in range(9):
        for length in range(5):
            for cap in itertools.combinations_with_replacement(range(8, 0, -1), length):
                ideal = symfunc._order_ideal.__wrapped__(cap, bound)
                sweeps = ideal[2]
                assert len(sweeps) == length + 1
                for k in range(1, length + 2):
                    assert sweeps[min(k, length)] == _filtered_sweeps(ideal, k), (cap, k)


def test_step_rows_hold_the_whole_rows_pairs():
    # a step's rows are filtered from the whole rows, not rebuilt: each of
    # their pairs is a pair object of sweeps[-1], and the ints of all pairs
    # are the index's own, one object per state
    for bound in range(9):
        for length in range(5):
            for cap in itertools.combinations_with_replacement(range(8, 0, -1), length):
                sweeps = symfunc._order_ideal.__wrapped__(cap, bound)[2]
                whole = {id(p) for row in sweeps[-1] for p in row}
                assert all(id(p) in whole for step in sweeps[:-1] for row in step
                           for p in row), cap
    sweeps = symfunc._order_ideal.__wrapped__((16,) * 4, 16)[2]
    ints = {}
    assert all(ints.setdefault(j, j) is j for row in sweeps[-1] for p in row for j in p)
    assert max(ints) > 256


def test_schur_at_rational_points():
    # repeated numeric values exercise the generic-evaluation path of the
    # bialternant, which would be 0/0 if evaluated naively
    values = [Scalar.of(1), Scalar.of(1), Scalar.of(2)]
    for shape in partitions_up_to(3, 3):
        assert schur(shape, values, "bialternant") == schur_ssyt_oracle(shape, values)


@settings(max_examples=30, deadline=None)
@given(st.permutations(range(3)), st.sampled_from([(1,), (2,), (2, 1), (2, 2), (3, 1)]))
def test_schur_symmetric_under_variable_permutation(perm, shape):
    variables = X[:3]
    permuted = [variables[i] for i in perm]
    assert schur(shape, variables) == schur(shape, permuted)


@pytest.mark.parametrize("shape", [(1,), (2,), (2, 1)])
def test_schur_stability_under_zero_padding(shape):
    assert schur(shape, X[:2] + [Scalar.of(0)]) == schur(shape, X[:2])


# --- truncated Cauchy identity ------------------------------------------------

@pytest.mark.parametrize("n,m,order", [(1, 1, 5), (2, 2, 5), (3, 2, 5), (3, 3, 5)])
def test_truncated_cauchy_identity(n, m, order):
    xs, ys = X[:n], Y[:m]
    lhs = [Scalar.of(0)] * (order + 1)
    for shape in partitions_up_to(order, min(n, m)):
        lhs[shape.size] = lhs[shape.size] + schur(shape, xs) * schur(shape, ys)
    rhs = euler_expand(EulerFactor([x * y for x in xs for y in ys]), order)
    assert tuple(lhs) == rhs.coeffs, \
        "sum of s(x)s(y) t^|shape| does not match the Euler expansion"


def test_schur_caches_are_bounded():
    ideal_bound = symfunc.PARTITION_CACHE_SIZE
    assert symfunc._order_ideal.cache_info().maxsize == ideal_bound
    for i in range(ideal_bound + 10):
        # one distinct order ideal per shape
        assert schur((i,), [Scalar.of(2)]) == 2 ** i
    assert symfunc._order_ideal.cache_info().currsize <= ideal_bound
    assert schur((2, 1), X[:2]) == X[0] ** 2 * X[1] + X[0] * X[1] ** 2
