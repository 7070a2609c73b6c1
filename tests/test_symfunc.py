"""Partitions, Schur polynomials, and the combinatorial cross-checks."""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from whittaker.errors import UnsupportedWeight
from whittaker.ringcore import EulerFactor, Scalar, euler_expand
from whittaker import symfunc
from whittaker.symfunc import (
    Partition,
    complete_homogeneous,
    partitions_up_to,
    schur,
    schur_detailed,
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
    result = schur_detailed((1, 1, 1), X[:2])
    assert result.vanishes_by_length and result.value.is_zero()
    for algorithm in ("jacobi-trudi", "bialternant"):
        assert schur((1, 1, 1), X[:2], algorithm).is_zero()


# --- cross-algorithm agreement (small grid; acceptance runs the full one) ----

@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_triple_agreement_small(nvars):
    variables = X[:nvars]
    for shape in partitions_up_to(4, 4):
        jt = schur(shape, variables, "jacobi-trudi")
        bi = schur(shape, variables, "bialternant")
        tab = schur_ssyt_oracle(shape, variables)
        assert jt == bi == tab, f"disagreement at {shape}"


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
    # one distinct variable set per call: without a bound both caches
    # would hold an entry for each of them
    bound = symfunc.SCHUR_CACHE_SIZE
    for cache in (symfunc._h_list, symfunc._schur_jacobi_trudi):
        assert cache.cache_info().maxsize == bound
    for i in range(bound + 10):
        schur((1,), [Scalar.variable(f"bound{i}")])
    for cache in (symfunc._h_list, symfunc._schur_jacobi_trudi):
        assert cache.cache_info().currsize <= bound
    assert schur((2, 1), X[:2]) == X[0] ** 2 * X[1] + X[0] * X[1] ** 2
