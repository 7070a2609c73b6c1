"""Partitions, Schur polynomials and complete homogeneous polynomials.

Bounded partitions and Schur tables rest on one structure, an order ideal
of partitions (a set closed under removing a box): partitions_up_to lists
an ideal's states, and the default Schur algorithm fills a table over an
ideal by the Gelfand-Tsetlin branching rule (Macdonald I.(5.11)): one
variable and one interlacing row at a time, each row in order of size, in
place and without recursion, so every value shares the work of the smaller
ones.  The rows a fill sweeps at each step depend on the step alone, so
an ideal, the plain tuple (states, starts, sweeps) that _order_ideal
builds and caches, lists them once for every table on it.  That fill is
the one engine for sums of products of symmetric functions, and a table
is the plain list of its raw values (_fill).  The Cauchy sums of rseng's
lattice sum pair two tables of the partitions of bounded size and length
(_cauchy_sums); a single value s_lam fills the partitions contained in
lam, so complete_homogeneous, h_k = s_(k), fills the one-row ideal (0),
..., (k).  h_0..h_k are read off that table raw, in a ring the caller
chose (_h_values), for _cauchy_decision, the one decision of the Cauchy
identity, which returns a failing check's Euler side off that one table
and is asked by rseng, through _cauchy_identity, and by the CLI
spot-check at a rational point, through _agrees_at; or as Scalars
(_h_scalars), for the Jacobi-Trudi determinant and ringcore.euler_expand.
Distinct atoms are decided on small integer matrices instead
(_orbit_lattice): Kostka numbers read off the pair's two tables against
counts of contingency tables, with no roots' table filled unless the
check fails.  Their sums are returned in orbit form (orbits.Orbits); a
passing check whose x names all sort before its y names keeps its lhs in
that form (_cauchy_identity), printed and spot-checked from it, and
every other check expands it by orbits and reads its Scalars.
This module alone decides the ring, in one place, _ring: for a table of
one tuple (schur, _h_scalars) and for the pair of a Cauchy check
(_filled), whose sums, roots and Euler side all live in that one ring.
When every value is rational that ring is the Python ints, each tuple at
its own scale, the lcm of its denominators (_scaled_ints), and the ring
at the product of those scales; otherwise it is plain terms maps on the
union alphabet, each step adding a product into an entry in place.
Values are compared raw, and a Scalar is built only for a value read out
(_read).  schur is the one entry point: the Jacobi-Trudi determinant in
complete homogeneous polynomials and the bialternant ratio
a_(lam+delta) / a_delta (exact polynomial division at a generic point,
both alternants from one builder) stay selectable by name, and with a
semistandard-tableau enumerator they are the independent oracles the
tests compare against.  Each oracle builds its terms with
Scalar * and adds them in one kernel sum (ringcore._sum).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import lcm, prod
from operator import ge, mul
from typing import Iterable, Iterator, Sequence

from . import orbits
from .orbits import _distinct_atoms
from .errors import DivisionByZero, UnsupportedWeight
from .packing import _add_product, _aligned, _canon, _evaluate, _fields, _finished
from .ringcore import _ONE, _ZERO, Scalar, TruncatedSeries, _sum

ALGORITHMS = ("branching", "jacobi-trudi", "bialternant")

# Order ideals kept, one per (cap, size bound), least recently used first,
# so long-lived library use stays bounded: a lattice sum to degree d at
# length L reads one ideal, and a single Schur value s_lam the one below
# lam (partitions_up_to lists states without building an ideal).  No Schur
# value is kept: a table lives only as long as the lattice sum or the
# single value that filled it.
PARTITION_CACHE_SIZE = 256


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of nonnegative integers (trailing zeros dropped)."""

    parts: tuple

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise UnsupportedWeight(f"{parts} is not weakly decreasing")
        if parts and parts[-1] < 0:
            raise UnsupportedWeight(f"{parts} has negative parts")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def padded(self, length: int) -> tuple:
        return self.parts + (0,) * (length - len(self.parts))

    def __iter__(self):
        return iter(self.parts)

    def __str__(self):
        return "(" + ",".join(map(str, self.parts)) + ")" if self.parts else "()"


def partitions_up_to(size_bound: int, max_parts: int):
    """All partitions with size <= size_bound and at most max_parts parts.

    Ordered by size, then reverse-lexicographically within a size; each
    partition appears exactly once.  They are the states of one order
    ideal: a partition of size <= size_bound has at most size_bound parts.
    """
    if size_bound < 0 or max_parts < 0:
        raise ValueError("bounds must be nonnegative")
    states, _ = _ideal_states((size_bound,) * min(max_parts, size_bound), size_bound)
    return [Partition(mu) for mu in states]


def complete_homogeneous(k: int, variables: Sequence) -> Scalar:
    """Sum of all monomials of total degree k in the given variables."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return schur((k,), variables)


def _as_partition(shape) -> Partition:
    return shape if isinstance(shape, Partition) else Partition(shape)


def _schur_jacobi_trudi(parts: tuple, vars_key: tuple) -> Scalar:
    # det(h_(parts_i - i + j)), one product of h's per permutation, from its
    # first factor on and without h_0 = 1, negated for an odd permutation
    ell = len(parts)
    hs = _h_scalars(vars_key, max(parts, default=0) + ell)
    terms = []
    for perm in itertools.permutations(range(ell)):
        es = [p - i + j for i, (p, j) in enumerate(zip(parts, perm))]
        if min(es, default=0) >= 0:
            factors = [hs[e] for e in es if e]
            term = reduce(mul, factors) if factors else _ONE
            terms.append(term if _perm_sign(perm) > 0 else -term)
    return _sum(terms)


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def _alternant(exps: Sequence, names: list) -> Scalar:
    """a_exps, the sum over permutations p of sign(p) * prod_i names[p[i]]^exps[i]."""
    return _sum(Scalar.monomial({names[p]: e for p, e in zip(perm, exps)}, _perm_sign(perm))
                for perm in itertools.permutations(range(len(names))))


def _schur_generic(parts: tuple, nvars: int) -> Scalar:
    """Schur polynomial in internal symbols _g1.._gk: the bialternant
    a_(parts + delta) / a_delta, delta = (k - 1, ..., 1, 0) (Macdonald I.(3.1))."""
    names = [f"_g{i + 1}" for i in range(nvars)]
    delta = range(nvars - 1, -1, -1)
    padded = parts + (0,) * (nvars - len(parts))
    return _exact_div(_alternant([p + d for p, d in zip(padded, delta)], names),
                      _alternant(delta, names))


def _exact_div(f: Scalar, g: Scalar) -> Scalar:
    """Exact division of ordinary polynomials; g must divide f.

    Long division on packed keys: the quotient's next key is the
    remainder's leading key minus g's, and the division is exact only
    while that key has no negative exponent.  The width holds every
    product of two of the values, as in Scalar.__mul__, so every
    remainder term fits it.
    """
    if g.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if g.is_rational():
        return f * g.inverse()
    names, w, bound, (r, divisor) = _aligned((f, g), 2)
    n, lead = len(names), max(divisor)
    r, q = dict(r), {}
    while r:
        top = max(r)
        key = top - lead
        if any(e < 0 for _, e in _fields(key, n, w)):
            raise ValueError("inexact polynomial division")
        c = q[key] = _canon(Fraction(r[top]) / divisor[lead])
        _add_product(r, {key: -c}, divisor)
    return Scalar(*_finished(q, names, w, bound))


def _schur_bialternant(parts: tuple, vars_key: tuple) -> Scalar:
    # each term of the generic value with _gi replaced by vars_key[i - 1]
    generic = _schur_generic(parts, len(vars_key))
    return _sum(prod((vars_key[int(name[2:]) - 1] ** e for name, e in mono), start=Scalar.of(c))
                for mono, c in generic.iter_terms())


def _ideal_states(cap: tuple, bound: int) -> tuple:
    """(states, starts) of the partitions mu inside cap with |mu| <= bound.

    states lists them zero-padded to len(cap), by size and reverse-
    lexicographically within a size, and the states of size k are
    states[starts[k]:starts[k + 1]].  Each size is built from the one
    below it, by adding a box to one row.
    """
    states, starts = [], [0]
    level = [(0,) * len(cap)]
    for size in range(bound + 1):
        states.extend(level)
        starts.append(len(states))
        if size < bound:
            level = sorted({mu[:i] + (mu[i] + 1,) + mu[i + 1:] for mu in level
                            for i in range(len(cap))
                            if mu[i] < cap[i] and (not i or mu[i - 1] > mu[i])}, reverse=True)
    return states, starts


@lru_cache(maxsize=PARTITION_CACHE_SIZE)
def _order_ideal(cap: tuple, bound: int) -> tuple:
    """(states, starts, sweeps) of the partitions mu inside cap with |mu| <= bound.

    Such a set is an order ideal of Young's lattice: it holds mu - e_i
    whenever that is a partition.  states and starts are those of
    _ideal_states, in the order of partitions_up_to.  Row i lists, in the
    order of j, the pairs (j, d) with states[d] = states[j] - e_i.
    sweeps[min(k, len(cap))] lists the rows that step k of _fill sweeps,
    last row first: for k < len(cap), rows k-1 down to 0 over the states
    with at most k parts, and from k = len(cap) on every row whole (so
    sweeps[-1] is rows len(cap)-1 down to 0), all of the whole rows' pairs.
    They depend on k alone, so every table on the ideal shares them.
    """
    states, starts = _ideal_states(cap, bound)
    index = {mu: j for j, mu in enumerate(states)}
    rows = [[(j, d) for mu, j in index.items()
             if (d := index.get(mu[:i] + (mu[i] - 1,) + mu[i + 1:])) is not None]
            for i in range(len(cap))]
    sweeps = [[[p for p in rows[i] if not states[p[0]][k]] for i in reversed(range(k))]
              for k in range(len(cap))]
    sweeps.append(rows[::-1])
    return states, starts, sweeps


# A ring is a tuple (scale, names, width, bound), chosen by _ring.  names
# is None for the Python ints, each tuple of points x at D*x, D the lcm of
# its denominators, and scale the product of those D: by homogeneity a
# value of degree k in each tuple is scale^k times its value at the x.
# Otherwise scale is 1 and a value is a packing terms map over the alphabet
# names at the field width width, which holds every exponent up to bound.


def _read(ring: tuple, values, sizes) -> list:
    """The Scalars of the raw values of ring, value i of degree sizes[i]."""
    scale, names, w, bound = ring
    if names is None:
        return [Scalar.rational(v, scale ** k) for v, k in zip(values, sizes)]
    return [Scalar(*_finished(v, names, w, bound)) for v in values]


def _fill(points: Sequence, ideal: tuple, ring: tuple, top: tuple = ()) -> list:
    """The Schur values of points x_1..x_n on ideal (states, starts, sweeps)
    of _order_ideal: raw values of ring, in the order of states.

    s_lam(x_1..x_k) is the sum, over mu interlacing lam
    (lam_1 >= mu_1 >= lam_2 >= ... >= mu_(k-1) >= lam_k), of
    s_mu(x_1..x_(k-1)) * x_k^(|lam| - |mu|) (Macdonald, Symmetric Functions
    and Hall Polynomials, I.(5.11)).  Let W_i(lam) be the part of that sum
    with mu_j = lam_j for every row j < i (rows counted from 0).  Then
    W_i(lam) = W_(i+1)(lam) + x_k * W_i(lam - e_i), without the second term
    when lam - e_i is not a partition; W_0(lam) = s_lam(x_1..x_k), and
    W_k(lam) = s_lam(x_1..x_(k-1)), which is 0 when lam has k parts.  So one
    list holds W over the ideal, starting from s_lam() (1 at the empty
    partition, else 0), and for k = 1..n the rows i = min(L, k) - 1 down to
    0, L = len(sweeps) - 1 the ideal's length, are swept in place, in order
    of size, over the states with at most k parts: one add and one multiply
    by x_k per state and row, and no recursion at any width.  Those sweeps
    are the ideal's, made once per ideal.  When only s_top is wanted, row i
    at step k sweeps only the lam with lam_j >= top_(j+n-k+1) for j <= i and
    lam_j >= top_(j+n-k) for j > i, the states that a Gelfand-Tsetlin
    pattern ending at top passes through, with their chains; the other
    values go stale.  Only this window filters rows per fill.

    On the one-row ideal (0), (1), ..., (order) the one row is the
    convolution h_k += x_k * h_(k-1) of the h_k = s_(k) (Macdonald
    I.(3.9)), which is how every h_k is made.  On distinct atoms the
    coefficient of a dominant monomial x^alpha in s_lam is the Kostka
    number K[lam][alpha], which the orbit route reads off the table
    (orbits.kostka_products).

    The points are raw values of ring (_ring): ints, or terms maps, each
    step then adding x_k times one map into another in place
    (packing._add_product).  A Scalar is built only for a value read out
    (_read).
    """
    states, _, sweeps = ideal
    size, length, n = len(states), len(sweeps) - 1, len(points)
    ints = ring[1] is None
    values = [1] + [0] * (size - 1) if ints else [{0: 1}] + [{} for _ in range(size - 1)]
    for k, x in enumerate(points, 1):
        # the rows to sweep at step k, in order: the ideal's, unless the
        # window of top narrows some
        step, window = sweeps[min(k, length)], top[n - k:]
        if window:
            narrowed = []
            for i, row in zip(range(len(step) - 1, -1, -1), step):
                floor = window[1:i + 2] + window[i + 1:]
                if any(floor):
                    row = [(j, d) for j, d in row if all(map(ge, states[d], floor))]
                narrowed.append(row)
            step = narrowed
        if ints:
            for row in step:
                for j, d in row:
                    values[j] += x * values[d]
        else:
            for row in step:
                for j, d in row:
                    _add_product(values[j], x, values[d])
    return values


def _scaled_ints(values: Sequence) -> tuple:
    """(D, [D * v for v in values]), D the lcm of the denominators, if every
    value is an int, a Fraction or a rational Scalar; else None.  Every
    D * v is an int, also when v is an integral Fraction."""
    cs = []
    for v in values:
        if v.__class__ is Scalar:
            if v.names:
                return None
            v = v.terms.get(0, 0)
        cs.append(v)
    scale = lcm(*[c.denominator for c in cs])
    return scale, [c.numerator * (scale // c.denominator) for c in cs]


def _ring(tuples: Sequence, degree: int) -> tuple:
    """(ring, points): the one ring of the sums of products of degree factors
    among the values of tuples, and points[i] the values of tuples[i] as raw
    points of it.  When every value is rational the ring is the Python ints,
    each tuple at its own scale (_scaled_ints) and the ring at the product
    of those scales; otherwise it is terms maps on the union alphabet
    (packing._aligned)."""
    scaled = [_scaled_ints(values) for values in tuples]
    if all(scaled):
        return (prod(d for d, _ in scaled), None, None, 0), [p for _, p in scaled]
    names, w, bound, maps = _aligned([Scalar.of(v) for values in tuples for v in values], degree)
    maps = iter(maps)
    return (1, names, w, bound), [list(itertools.islice(maps, len(values))) for values in tuples]


def _h_values(points: Sequence, order: int, ring: tuple) -> list:
    """h_0..h_order of points, raw values of ring: state k of the one-row
    ideal (0), (1), ..., (order) is (k), and h_k = s_(k)."""
    return _fill(points, _order_ideal((order,), order), ring)


def _h_scalars(values: Sequence, order: int) -> list:
    """h_0..h_order of values as Scalars, filled in the ring that _ring chooses."""
    ring, (points,) = _ring((values,), order)
    return _read(ring, _h_values(points, order, ring), range(order + 1))


def _filled(xs: Sequence, ys: Sequence, order: int) -> tuple:
    """(ring, ideal, points, tables, roots) of a Cauchy check through t^order,
    raw values of ring: the Schur tables of xs and ys over ideal, the
    partitions of size <= order with at most min(len(xs), len(ys)) parts,
    the two tuples as points of ring, and roots the products x * y, x outer.

    The ring is _ring's for the pair, at a degree that holds a product of
    order factors from each tuple (and the roots at order 0): so two
    rational tuples fill in ints at their own scales Dx and Dy, and the
    roots are ints at the scale Dx * Dy.  No value of the two tables is
    read out, so they can share ring.  Both tables are filled for this call
    only.
    """
    ideal = _order_ideal((order,) * min(len(xs), len(ys)), order)
    ring, (px, py) = _ring((xs, ys), 2 * max(order, 1))
    tables = [_fill(points, ideal, ring) for points in (px, py)]
    if ring[1] is None:
        return ring, ideal, (px, py), tables, [a * b for a in px for b in py]
    roots = [{} for _ in px for _ in py]
    for root, (p, q) in zip(roots, itertools.product(px, py)):
        _add_product(root, p, q)
    return ring, ideal, (px, py), tables, roots


def _lattice(xs: Sequence, ys: Sequence, order: int) -> tuple:
    """(ring, sums, roots) of a Cauchy check through t^order, raw values of
    ring (_filled): sums[k] the sum of s_lam(xs) * s_lam(ys) over the
    partitions lam of k, the dot product of the two tables' slices of size
    k, in ints at the scale Dx * Dy for a rational pair."""
    ring, ideal, _, (u, v), roots = _filled(xs, ys, order)
    slices = zip(ideal[1], ideal[1][1:])
    if ring[1] is None:
        return ring, [sum(map(mul, u[a:b], v[a:b])) for a, b in slices], roots
    sums = []
    for a, b in slices:
        sums.append({})
        for p, q in zip(u[a:b], v[a:b]):
            _add_product(sums[-1], p, q)
    return ring, sums, roots


def _cauchy_sums(xs: Sequence, ys: Sequence, order: int) -> list:
    """[c_0, ..., c_order], c_k the sum of s_lam(xs) * s_lam(ys) over the partitions lam of k."""
    ring, sums, _ = _lattice(xs, ys, order)
    return _read(ring, sums, range(order + 1))


@lru_cache(maxsize=PARTITION_CACHE_SIZE)
def _orbit_table(size: int, order: int) -> list:
    """orbits.orbit_table of the partitions of 0..order with at most size parts."""
    states, starts = _ideal_states((order,) * size, order)
    return orbits.orbit_table([states[a:b] for a, b in zip(starts, starts[1:])])


@lru_cache(maxsize=PARTITION_CACHE_SIZE)
def _contingency(n: int, m: int, order: int) -> list:
    """orbits.contingency_counts of n x m matrices, on _orbit_table's
    partitions; for n < m the transposes of the m x n counts, so the two
    shapes of a transposed pair share one count."""
    if n < m:
        return [[list(col) for col in zip(*counts)] for counts in _contingency(m, n, order)]
    return orbits.contingency_counts(*([alphas for alphas, _ in _orbit_table(size, order)]
                                       for size in (n, m)))


def _orbit_lattice(xs: Sequence, ys: Sequence, order: int) -> tuple:
    """(ring, form, roots, holds) of a Cauchy check of the distinct atoms xs
    and ys through t^order: _lattice's ring and roots, form the
    orbits.Orbits of _lattice's sums, whose expansion (orbits.expanded) they
    are, and whether sums[k] = h_k(roots) for every k.

    The t^k coefficient of x^a y^b depends on the orbits of a and b alone
    (orbits): it is ms[k] = K_x^T K_y, the Kostka numbers read off _filled's
    two Schur tables at dominant keys, on the lattice side, and the count
    of contingency tables on the Euler side.  holds is their equality on
    every k.
    """
    ring, ideal, points, tables, roots = _filled(xs, ys, order)
    units = [[next(iter(p)) for p in side] for side in points]
    shapes = [_orbit_table(len(xs), order), _orbit_table(len(ys), order)]
    ms = orbits.kostka_products(ideal[1], tables, units, shapes)
    holds = ms == _contingency(len(xs), len(ys), order)
    return ring, orbits.Orbits(ms, shapes, (xs, ys), units), roots, holds


def _cauchy_decision(xs: Sequence, ys: Sequence, order: int) -> tuple:
    """(ring, sums, roots, euler) of the Cauchy check of xs and ys through
    t^order, raw values of _filled's one ring: the roots x * y, x outer
    (l_factor's order), and euler None when sums[k] = h_k(roots) for every
    k (Macdonald I.(4.3)), else h_0..h_order of the roots.

    The route depends on the two tuples alone.  Distinct atoms, at least
    two on each side, are decided on integer matrices (_orbit_lattice),
    their sums returned as its orbits.Orbits form, and the roots' one-row
    table filled only for a failing check; every other pair compares that
    table with _lattice's sums, raw.
    """
    if min(len(xs), len(ys)) > 1 and _distinct_atoms(xs, ys):
        ring, form, roots, holds = _orbit_lattice(xs, ys, order)
        return ring, form, roots, None if holds else _h_values(roots, order, ring)
    ring, sums, roots = _lattice(xs, ys, order)
    euler = _h_values(roots, order, ring)
    return ring, sums, roots, None if sums == euler else euler


def _cauchy_identity(xs: Sequence, ys: Sequence, order: int) -> tuple:
    """(lhs, roots, rhs): the TruncatedSeries of _cauchy_decision's sums,
    and its roots and Euler side as Scalars, rhs None when the two sides
    agree.  Scalars are built only for what is returned.  A passing check
    of distinct atoms whose x names all sort before its y names
    (orbits.Orbits.in_print_order) returns its lhs in orbit form, printed
    and spot-checked from the form and expanded (orbits.expanded, _read)
    only when its coefficients are read; any other orbit-route check,
    failing or with interleaved names, expands it here.
    """
    ring, sums, roots, euler = _cauchy_decision(xs, ys, order)
    sizes = range(order + 1)
    if sums.__class__ is not orbits.Orbits:
        lhs = TruncatedSeries(order, _read(ring, sums, sizes))
    else:
        lhs = TruncatedSeries(order, lambda: _read(ring, orbits.expanded(sums), sizes), sums)
        if euler is not None or not sums.in_print_order():
            lhs = TruncatedSeries(order, lhs.coeffs)
    return (lhs, _read(ring, roots, [1] * len(roots)),
            None if euler is None else _read(ring, euler, sizes))


def _agrees_at(lhs, xs: Sequence, ys: Sequence, bindings: dict) -> bool:
    """Whether _cauchy_decision holds for the atoms xs and ys (rationals or
    single indeterminates) bound at the rational point bindings, in the
    ints of one scale S, and the series lhs takes the values of its sums
    there, sums[k] / S^k at t^k.

    A series in orbit form is evaluated from that form, the sum over i
    and j of M_k[i][j] m_i(X) m_j(Y) (orbits.evaluated), X and Y each
    side's atoms in the ints of that side's scale, as the decision's ring
    has them: so its values must equal the sums exactly, and neither its
    Scalars nor packing._evaluate are made or run.  That reads M, the
    orbit indices and the compositions, all that its text is written
    from.  Any other series is evaluated by packing._evaluate and compared
    by cross-multiplying in ints.
    """
    def point(atoms):
        return [bindings[v.names[0]] if v.names else v.terms.get(0, 0) for v in atoms]

    ring, sums, _, euler = _cauchy_decision(point(xs), point(ys), lhs.order)
    holds = euler is None
    if lhs.form is not None:
        points = [_scaled_ints(point(atoms))[1] for atoms in lhs.form.atoms]
        return holds and orbits.evaluated(lhs.form, points) == sums
    scale = ring[0]
    nums, den = _evaluate(lhs.coeffs, bindings)
    agree = all(num * scale ** k == c * den for k, (num, c) in enumerate(zip(nums, sums)))
    return holds and agree


def schur(shape, variables: Sequence, algorithm: str = "branching") -> Scalar:
    """Schur polynomial s_shape(variables) by the named algorithm.

    A shape longer than the variable list is not an error: the value is 0
    by the standard vanishing convention.
    """
    shape = _as_partition(shape)
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    vars_key = tuple(map(Scalar.of, variables))
    if shape.length > len(vars_key):
        return _ZERO
    parts = shape.parts
    if algorithm == "branching":
        # a table on the partitions inside parts of size at most |parts|,
        # swept toward parts, its one state of that size and so its last
        ring, (points,) = _ring((vars_key,), sum(parts))
        value = _fill(points, _order_ideal(parts, sum(parts)), ring, parts)[-1]
        return _read(ring, [value], [sum(parts)])[0]
    if algorithm == "jacobi-trudi":
        return _schur_jacobi_trudi(parts, vars_key)
    return _schur_bialternant(parts, vars_key)


def ssyt_tableaux(shape, nvars: int) -> Iterator[tuple]:
    """All semistandard Young tableaux of the given shape with entries 1..nvars.

    Rows weakly increase, columns strictly increase; tableaux are emitted as
    tuples of row tuples.
    """
    shape = _as_partition(shape)
    rows = shape.parts

    def fill(rowidx, colidx, current):
        if rowidx == len(rows):
            yield tuple(tuple(r) for r in current)
            return
        if colidx == rows[rowidx]:
            yield from fill(rowidx + 1, 0, current)
            return
        lo = 1
        if colidx > 0:
            lo = max(lo, current[rowidx][colidx - 1])
        if rowidx > 0:
            lo = max(lo, current[rowidx - 1][colidx] + 1)
        for v in range(lo, nvars + 1):
            current[rowidx].append(v)
            yield from fill(rowidx, colidx + 1, current)
            current[rowidx].pop()

    yield from fill(0, 0, [[] for _ in rows])


def schur_ssyt_oracle(shape, variables: Sequence) -> Scalar:
    """Schur polynomial by brute-force tableau enumeration (test oracle)."""
    vars_key = tuple(Scalar.of(v) for v in variables)
    return _sum(prod((vars_key[v - 1] for row in tab for v in row), start=_ONE)
                for tab in ssyt_tableaux(shape, len(vars_key)))
