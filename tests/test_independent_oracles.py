"""Oracles for the integral and both sides of the identity that share no engine code.

Every check in the library, and most oracles in the other test files,
runs symfunc's Schur-table fill or packing's product kernel.  The
oracles here use neither:

- the plain-Fraction product of the r*m geometric series 1/(1 - c t),
  against the series of a rational verify_essential or cauchy_check;
- for distinct atoms x, y, the x^a y^b coefficient of the t^k coefficient
  of prod (1 - x_i y_j t)^-1 counts the nonnegative integer matrices with
  row sums a and column sums b (by RSK also sum_lam K_(lam,a) K_(lam,b),
  Macdonald I.(4.3'); Knuth 1970), against a symbolic cauchy_check and
  verify_essential, read through iter_terms();
- the Kostka products M_k of the value-free orbit matrices, against
  semistandard tableaux enumerated and counted by content;
- the integral I(W_ess, W'_0, s) itself, as the paper defines it: a torus
  sum of Whittaker values made from semistandard tableaux, with every
  power of u kept, and the L side as a product over pairs of segments,
  against rs_series and verify_essential, the integrality hook included.
  The engine never evaluates this sum: it reduces it to the Cauchy sum of
  two tuples, and this oracle checks that reduction.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whittaker.repdata import UnramifiedLanglandsRep, parse_rep, parse_scalar_atom
from whittaker.ringcore import EulerFactor, Scalar, euler_expand
from whittaker.rseng import cauchy_check, l_factor, rs_series, verify_essential


def _rep_with_tops(tops, n):
    """A rep of GL(n) whose unramified tops are the given atoms, one segment each."""
    segments = [{"kind": "unramified", "satake": str(x), "length": 1} for x in tops]
    if len(tops) < n:
        segments.append({"kind": "ramified", "id": "rho1", "degree": n - len(tops),
                         "length": 1})
    return parse_rep({"q": "symbolic", "segments": segments})


# --- the geometric-series product in plain Fractions ------------------------------------

def _geometric_product(roots, order):
    """The t^0..t^order coefficients of prod 1/(1 - c t) over roots, in Fractions."""
    coeffs = [Fraction(1)] + [Fraction(0)] * order
    for c in roots:
        powers = [c ** j for j in range(order + 1)]
        coeffs = [sum(coeffs[i] * powers[k - i] for i in range(k + 1)) for k in range(order + 1)]
    return coeffs


_FRACTIONS = st.one_of(
    st.integers(-9, 9).filter(bool).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
    st.builds(Fraction, st.integers(-999, 999).filter(bool), st.integers(10 ** 6, 10 ** 9)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rational_series_are_the_product_of_geometric_series(data):
    pool = data.draw(st.lists(_FRACTIONS, min_size=1, max_size=3), label="pool")
    value = st.sampled_from(pool)
    n = data.draw(st.integers(2, 4))
    r, m = data.draw(st.integers(0, n)), data.draw(st.integers(1, n - 1))
    order = data.draw(st.integers(0, 6))
    tops = [data.draw(value) for _ in range(r)]
    satake = [data.draw(value) for _ in range(m)]
    report = verify_essential(_rep_with_tops(tops, n), UnramifiedLanglandsRep(satake), order)
    expected = _geometric_product([x * y for x in tops for y in satake], order)
    assert report.passed
    assert [c.as_fraction() for c in report.lhs_series.coeffs] == expected
    assert [c.as_fraction() for c in report.rhs_series.coeffs] == expected
    xs = [data.draw(value) for _ in range(n)]
    report = cauchy_check(n, m, xs, satake, order)
    expected = _geometric_product([x * y for x in xs for y in satake], order)
    assert report.passed
    assert [c.as_fraction() for c in report.lhs_series.coeffs] == expected


# --- contingency tables -------------------------------------------------------------------

def _compositions(total, parts):
    """Every tuple of parts nonnegative ints with the given sum."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _left_after_row(total, cols):
    """cols - v for every v with 0 <= v <= cols entrywise and sum(v) = total."""
    if not cols:
        if not total:
            yield ()
        return
    for v in range(min(total, cols[0]) + 1):
        for rest in _left_after_row(total - v, cols[1:]):
            yield (cols[0] - v,) + rest


def _table_count(rows, cols):
    """The number of nonnegative integer matrices with row sums rows and column sums cols."""

    @lru_cache(maxsize=None)
    def count(i, cols):
        if i == len(rows):
            return int(not any(cols))
        return sum(count(i + 1, left) for left in _left_after_row(rows[i], cols))

    return count(0, tuple(cols))


def _assert_counts_tables(coeffs, n, m):
    for k, coeff in enumerate(coeffs):
        got = {}
        for mono, c in coeff.iter_terms():
            exps = dict(mono)
            a = tuple(exps.pop(f"x{i + 1}", 0) for i in range(n))
            b = tuple(exps.pop(f"y{j + 1}", 0) for j in range(m))
            assert not exps, mono
            got[a, b] = c
        expected = {(a, b): _table_count(a, b)
                    for a in _compositions(k, n) for b in _compositions(k, m)}
        assert got == expected, k


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 6))
def test_the_contingency_counts_of_both_shapes_of_a_transposed_pair(n, m, order):
    # symfunc's value-free n x m counts, of which one shape of a transposed
    # pair is the other's transpose, against the count of matrices row by
    # row; the Kostka products equal them (RSK)
    from hypothesis import assume

    from whittaker import symfunc

    assume(n != m)
    for a, b in ((n, m), (m, n)):
        shapes, ms, counts = symfunc._orbit_matrices(a, b, order)
        assert shapes == (symfunc._orbit_table(a, order), symfunc._orbit_table(b, order))
        for k, ((alphas, _), (betas, _)) in enumerate(zip(*shapes)):
            expected = tuple(tuple(_table_count(x, y) for y in betas) for x in alphas)
            assert counts[k] == ms[k] == expected, (a, b, k)


def _partitions(total, largest):
    """The partitions of total with parts at most largest, parts descending."""
    if not total:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in range(1, n + 1)])
def test_the_kostka_products_count_tableaux_of_each_content(n, m):
    # M_k[i][j] = sum over lam of K[lam][alpha_i] * K[lam][beta_j], read
    # off one Schur table of canonical indeterminates, against the
    # semistandard tableaux of each shape lam of k in max(n, m) entries,
    # enumerated and counted by content, both contents padded to that many
    # entries; for both orientations of the pair
    from whittaker import symfunc

    @lru_cache(maxsize=None)
    def contents(lam):
        return Counter(tuple(sum(row.count(v) for row in tab) for v in range(1, n + 1))
                       for tab in symfunc.ssyt_tableaux(lam, n))

    def pad(alpha):
        return alpha + (0,) * (n - len(alpha))

    for a, b in ((n, m), (m, n)):
        for order in range(6):
            shapes, ms, _ = symfunc._orbit_matrices(a, b, order)
            assert len(ms) == order + 1
            for k, ((alphas, _), (betas, _)) in enumerate(zip(*shapes)):
                lams = list(_partitions(k, k))
                expected = tuple(tuple(sum(contents(lam)[pad(alpha)] * contents(lam)[pad(beta)]
                                           for lam in lams) for beta in betas)
                                 for alpha in alphas)
                assert ms[k] == expected, (a, b, order, k)


@pytest.mark.parametrize("n,m,k", [(2, 2, 3), (3, 2, 4), (3, 3, 4), (4, 3, 3)])
def test_symbolic_cauchy_coefficients_count_contingency_tables(n, m, k):
    xs = [Scalar.variable(f"x{i + 1}") for i in range(n)]
    ys = [Scalar.variable(f"y{j + 1}") for j in range(m)]
    report = cauchy_check(n, m, xs, ys, k)
    assert report.passed
    _assert_counts_tables(report.lhs_series.coeffs, n, m)
    # the Euler side, expanded on its own rather than taken from the report
    factor = EulerFactor([x * y for x in xs for y in ys])
    _assert_counts_tables(euler_expand(factor, k).coeffs, n, m)


def test_symbolic_verify_coefficients_count_contingency_tables():
    # r = 3 tops x1..x3 of a GL(4) rep against m = 2 Satake values y1, y2
    rep = _rep_with_tops(["x1", "x2", "x3"], 4)
    pi_prime = UnramifiedLanglandsRep((Scalar.variable("y1"), Scalar.variable("y2")))
    report = verify_essential(rep, pi_prime, 4)
    assert report.passed
    _assert_counts_tables(report.lhs_series.coeffs, 3, 2)
    _assert_counts_tables(euler_expand(l_factor(rep, pi_prime), 4).coeffs, 3, 2)


# --- the integral from its definition, in plain dicts --------------------------------------
#
# A polynomial is a dict {exponents: coefficient}, exponents a tuple over
# one alphabet of names that ends in u, with u^2 = q, so |varpi| = u^-2,
# and each coefficient an int or a Fraction.  An atom is (its position in
# the alphabet, 1) or (None, its rational value).

_DEPTH = 2  # the integrality hook's depth D, fixed here and not read from the engine


def _times(p, q, out=None):
    """p * q, added into out when given."""
    out = {} if out is None else out
    for a, c in p.items():
        for b, d in q.items():
            mono = tuple(map(add, a, b))
            out[mono] = out.get(mono, 0) + c * d
    return out


def _nonzero(p):
    return {mono: c for mono, c in p.items() if c}


def _u(e, width):
    return {(0,) * (width - 1) + (e,): 1}


@lru_cache(maxsize=None)
def _contents(shape, nvars):
    """{content: count} over the semistandard tableaux of shape with entries 1..nvars."""
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    entry, counts, content = {}, {}, [0] * nvars

    def fill(c):
        if c == len(cells):
            key = tuple(content)
            counts[key] = counts.get(key, 0) + 1
            return
        i, j = cells[c]
        # rows weakly increase, columns strictly
        for v in range(max(entry.get((i, j - 1), 1), entry.get((i - 1, j), 0) + 1), nvars + 1):
            entry[i, j] = v
            content[v - 1] += 1
            fill(c + 1)
            content[v - 1] -= 1

    fill(0)
    return counts


def _schur(weight, atoms, width):
    """s_weight(atoms) for a weakly decreasing weight of len(atoms) entries:
    the sum over SSYT of x^content (Macdonald I.(5.12)), and for a last
    entry -c < 0, s_w = (x_1...x_N)^(-c) s_(w + c)."""
    c = max(0, -weight[-1]) if weight else 0
    shape = tuple(p + c for p in weight if p + c)
    out = {}
    for content, count in _contents(shape, len(atoms)).items():
        exps, coeff = [0] * width, count
        for (at, value), e in zip(atoms, content):
            if at is None:
                coeff *= value ** (e - c)
            else:
                exps[at] += e - c
        mono = tuple(exps)
        out[mono] = out.get(mono, 0) + coeff
    return _nonzero(out)


def _delta_half(weight):
    """The u-power delta_B^(1/2)(varpi^weight), delta_B(a) = prod_(i<j) |a_i / a_j|."""
    return -sum(a - b for i, a in enumerate(weight) for b in weight[i + 1:])


def _weights(total, length, floor):
    """The weakly decreasing integer tuples of the given length and sum, entries >= floor."""
    if length <= 1:
        if (total >= floor) if length else not total:
            yield (total,) * length
        return
    for first in range(total - (length - 1) * floor, -(-total // length) - 1, -1):
        for rest in _weights(total - first, length - 1, floor):
            if rest[0] <= first:
                yield (first,) + rest


def _left_value(tops, n, weight, hook, width):
    """W_ess at diag(varpi^weight, 1), 1 of size n - len(weight), by the
    paper's torus formula: with the r tops as pi_u's parameters and head
    the first r exponents, W_0^(pi_u)(varpi^head) |det varpi^head|^((n-r)/2)
    where the other exponents vanish, times the integrality indicator
    1_O(a_r) unless hook.  At r = n this is W_0, the indicator the lattice's."""
    r = len(tops)
    point = weight + (0,) * (n - len(weight))
    head = point[:r]
    if (any(point[r:]) or any(a < b for a, b in zip(head, head[1:]))
            or (head and head[-1] < 0 and not hook)):
        return {}
    return _times(_schur(head, tops, width), _u(_delta_half(head) - (n - r) * sum(head), width))


def _integral(tops, n, satake, order, hook, width):
    """[c_0, ..., c_order]: c_k sums, over the dominant weights w of GL(m)
    with |w| = k and entries >= -D, W_ess(diag(varpi^w, 1)) W'_0(varpi^w)
    delta_B^(-1)(varpi^w) |det varpi^w|^(-(n-m)/2), the factor t^k of
    |det|^s left out; W'_0 = delta_B^(1/2) s_w(satake) (Shintani,
    Casselman-Shalika)."""
    m = len(satake)
    coeffs = []
    for k in range(order + 1):
        total = {}
        for w in _weights(k, m, -_DEPTH):
            left = _left_value(tops, n, w, hook, width)
            if left:
                right = _times(_schur(w, satake, width), _u(-_delta_half(w) + (n - m) * k, width))
                _times(left, right, total)
        coeffs.append(_nonzero(total))
    return coeffs


def _l_side(tops, satake, order, width):
    """prod over the pairs (top, y) of (1 - top y t)^-1 through t^order."""
    one = {(0,) * width: 1}
    coeffs = [one] + [{} for _ in range(order)]
    for x in tops:
        for y in satake:
            root = _times(_schur((1,), [x], width), _schur((1,), [y], width))
            powers = [one]
            for _ in range(order):
                powers.append(_times(powers[-1], root))
            product = []
            for k in range(order + 1):
                total = {}
                for i in range(k + 1):
                    _times(coeffs[i], powers[k - i], total)
                product.append(_nonzero(total))
            coeffs = product
    return coeffs


def _rep_with_segments(tops, lengths, n):
    """A rep of GL(n): an unramified segment of the given length per top, and
    one ramified segment for the rest of n."""
    segments = [{"kind": "unramified", "satake": x, "length": length}
                for x, length in zip(tops, lengths)]
    if sum(lengths) < n:
        segments.append({"kind": "ramified", "id": "rho1", "degree": n - sum(lengths),
                         "length": 1})
    return parse_rep({"q": "symbolic", "segments": segments})


def _assert_integral(left, pi_prime, n, order, hook):
    if isinstance(left, UnramifiedLanglandsRep):
        tops = left.satake
    else:
        # L(s, Delta x chi') is 1 unless Delta is a segment of unramified
        # characters, and pi_u's parameters are those segments' tops
        tops = [s.top.value for s in left.segments if s.kind == "unramified"]
    # each value read from its text: an atom's name, or a rational
    texts = [str(v) for v in (*tops, *pi_prime.satake)]
    names = sorted({x for x in texts if not _is_rational(x)})
    alphabet = {name: i for i, name in enumerate(names)}
    width = len(names) + 1
    atoms = [(alphabet[x], 1) if x in alphabet else (None, Fraction(x)) for x in texts]
    tops, satake = atoms[:len(tops)], atoms[len(tops):]

    def terms(series):
        out = []
        for coeff in series.coeffs:
            got = {}
            for mono, c in coeff.iter_terms():
                exps = [0] * width
                for name, e in mono:
                    exps[alphabet[name]] = e
                got[tuple(exps)] = c
            out.append(got)
        return out

    integral = _integral(tops, n, satake, order, hook, width)
    l_side = _l_side(tops, satake, order, width)
    assert terms(rs_series(left, pi_prime, order, drop_integrality=hook)) == integral
    if not hook:
        assert integral == l_side
    if isinstance(left, UnramifiedLanglandsRep):
        return
    report = verify_essential(left, pi_prime, order, drop_integrality=hook)
    assert terms(report.lhs_series) == integral
    assert report.passed == (integral == l_side)
    assert terms(report.rhs_series) == (integral if report.passed else l_side)


def _is_rational(text):
    try:
        Fraction(text)
    except ValueError:
        return False
    return True


_ORACLE_VALUES = st.sampled_from([-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_the_integral_from_its_definition(data):
    # the four shapes of the pointwise lattice test (r = 0, 1 <= r < n,
    # m = n = r, a Langlands left side), each with symbolic, rational and
    # mixed tuples; the essential side with or without the integrality hook
    case = data.draw(st.sampled_from(["r=0", "r<n", "m=n=r", "langlands"]))
    # a symbolic hook at m = r = 4 sums about 7 million term products
    hook = case != "langlands" and data.draw(st.booleans(), label="hook")
    n = data.draw(st.integers(2, 3 if hook else 4))
    if case == "r=0":
        r, m = 0, data.draw(st.integers(1, n - 1))
    elif case == "r<n":
        r, m = data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, n - 1))
    elif case == "m=n=r":
        r = m = n
    else:
        r, m = n, data.draw(st.integers(1, n))
    lengths = [1] * r
    if case == "r<n":
        lengths[0] += data.draw(st.integers(0, n - r), label="extra length")
    order = data.draw(st.integers(0, 4))
    xs = [data.draw(_ORACLE_VALUES) for _ in range(r)]
    ys = [data.draw(_ORACLE_VALUES) for _ in range(m)]
    x_mixed = data.draw(st.lists(st.booleans(), min_size=r, max_size=r))
    y_mixed = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
    for x_mask, y_mask in (([True] * r, [True] * m), ([False] * r, [False] * m),
                           (x_mixed, y_mixed)):
        tops = [f"a{i + 1}" if atom else str(x) for i, (x, atom) in enumerate(zip(xs, x_mask))]
        pi_prime = UnramifiedLanglandsRep(tuple(
            parse_scalar_atom(f"b{j + 1}" if atom else str(y))
            for j, (y, atom) in enumerate(zip(ys, y_mask))))
        if case == "langlands":
            left = UnramifiedLanglandsRep(tuple(map(parse_scalar_atom, tops)))
        else:
            left = _rep_with_segments(tops, lengths, n)
        _assert_integral(left, pi_prime, n, order, hook)


@pytest.mark.parametrize("tops, lengths, n, satake", [
    (("a1", "-2/3"), (2, 1), 4, ("b1", "3")),   # m = r = 2 < n
    (("1/2", "a2"), (1, 1), 2, ("5/4", "b2")),  # m = r = n
    (("a1",), (2,), 2, ("b1",)),                # m = r = 1: the hook adds nothing
    (("a1", "a2", "2"), (1, 1, 1), 4, ("b1", "-1")),  # m = 2 < r = 3: nor here
])
def test_the_integrality_hook_from_its_definition(tops, lengths, n, satake):
    rep = _rep_with_segments(tops, lengths, n)
    pi_prime = UnramifiedLanglandsRep(tuple(map(parse_scalar_atom, satake)))
    _assert_integral(rep, pi_prime, n, 4, True)
