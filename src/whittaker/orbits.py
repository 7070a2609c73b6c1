"""Name-free tables of the Cauchy identity, and its sums by orbits.

Each side of the Cauchy identity sum_lam s_lam(x) s_lam(y) t^|lam| =
prod (1 - x_i y_j t)^-1 in n indeterminates x and m indeterminates y is
symmetric in x and, separately, in y.  So the coefficient of x^a y^b
depends only on the orbits of the compositions a and b, the partitions
alpha = sort(a) and beta = sort(b): on the lattice side it is
sum_lam K[lam][alpha] K[lam][beta], K the Kostka numbers (Macdonald,
Symmetric Functions and Hall Polynomials, I.6), and on the Euler side the
number of n x m nonnegative integer matrices with row sums alpha and
column sums beta, the coefficient of y^beta in h_alpha(y) (I.(4.2)).  The
two are equal by RSK (Knuth, Pacific J. Math. 34, 1970), so the identity
is an equation of small integer matrices, M_k = K_x^T K_y against those
counts N_k, that depends on (n, m, k) alone.  At any values, repeated,
rational, shared by the two tuples or of many terms, the t^k sum is then
sum_(i,j) M_k[i][j] m_i(x) m_j(y), m_i the monomial symmetric sum of the
i-th partition (I.(2.1)).

Compositions of k into s parts are listed in one order, lexicographic
descending, so the first member of each orbit is the partition itself,
its dominant member; the partitions come from the caller, zero-padded.
One enumerator, compositions, walks them for everything read per
composition: the tuples of the orbit tables, the products of powers that
an expansion sums, the texts that ringcore prints and the values that a
spot-check sums.  Both sides' Kostka numbers are read off one Schur
table (kostka_products).  A check keeps its sums in that form (Orbits),
expanded into terms maps by packing's product kernel (expanded); a
passing check whose form is printable (Orbits.printable) is printed
(Orbits.texts) and evaluated at a point (evaluated) from the form.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, mul
from typing import NamedTuple

from . import packing
from .packing import _add_product, _var_key
from .ringcore import Scalar, _join_terms, _power_text, _signed_text


class Orbits(NamedTuple):
    """The Cauchy sums of the values atoms[0] (x) and atoms[1] (y) through
    t^order by orbits: the t^k sum is the sum over i and j of
    ms[k][i][j] m_i(x) m_j(y), the orbits those of shapes, the orbit tables
    of the two sides (orbit_table), and points[i] the values of atoms[i] as
    raw points of the check's ring (terms maps), in that order.  Both sides
    are symmetric, so the order of the values matters only to the text,
    which takes distinct atoms by name."""

    ms: tuple
    shapes: tuple
    atoms: tuple
    points: tuple

    def printable(self) -> bool:
        """Whether texts writes the sums as ringcore prints them expanded:
        both sides hold values, each an indeterminate with coefficient 1
        and exponent 1, no name is used twice, and every x name sorts
        before every y name (packing._var_key)."""
        xs, ys = self.atoms
        values = (*xs, *ys)
        if not (xs and ys and all(v.__class__ is Scalar and v.is_variable() for v in values)):
            return False
        x, y = ({v.names[0] for v in atoms} for atoms in (xs, ys))
        return len(x) + len(y) == len(values) and max(map(_var_key, x)) < min(map(_var_key, y))

    def texts(self, order: int) -> list:
        """The text of each coefficient of the sums through t^order, as
        pieces, as ringcore._texts gives those of their values when every x
        name sorts before every y name: then within a degree the print
        order (ringcore._print_order) is the x compositions descending and,
        for each, the y compositions descending.  A term is its
        coefficient's sign text (ringcore._signed_text), the x monomial, "*"
        and the y monomial, each composition's text made once.  For each x
        orbit, a row of terms is one join, by the x monomial, of the first
        sign, each y text with the next sign, and the last y text, in
        chunks of at most packing._BLOCK terms, and so are the pieces."""
        xt, yt = (compositions([[_power_text(name, e) for e in range(order + 1)]
                                for name in sorted((v.names[0] for v in atoms), key=_var_key)],
                               add, "", order)
                  for atoms in self.atoms)
        out, signed = [["1"]], {}
        for k in range(1, order + 1):
            (_, ox), (_, oy) = self.shapes[0][k], self.shapes[1][k]
            ys, block = yt[k], packing._BLOCK
            cuts = [*range(0, len(ys), block), len(ys)]
            rows = []
            for row in self.ms[k]:
                for c in set(row).difference(signed):
                    signed[c] = _signed_text(c)
                signs = [signed[row[j]] for j in oy]
                glue = list(map(add, ys, signs[1:]))
                rows.append([(e - b, [signs[b], *glue[b:e - 1], ys[e - 1]])
                             for b, e in zip(cuts, cuts[1:])])
            pieces, piece, size = [], [], 0
            for x, i in zip(xt[k], ox):
                x = x[1:]
                for terms, chunk in rows[i]:
                    if size + terms > block:
                        pieces.append("".join(piece))
                        piece, size = [], 0
                    piece.append(x.join(chunk))
                    size += terms
            pieces.append("".join(piece))
            pieces[0] = _join_terms(pieces[:1])
            out.append(pieces)
        return out


def compositions(powers, combine, unit, order: int) -> list:
    """forms[k] for k = 0..order: for each composition a of k into
    len(powers) parts, in lexicographic descending order, combine's fold of
    powers[0][a_0], powers[1][a_1], ... and unit, in that order
    (combine(p_0, combine(p_1, ... combine(p_last, unit)))); with no parts,
    unit alone at k = 0."""
    forms = [[unit]] + [[] for _ in range(order)]
    for power in reversed(powers):
        forms = [[combine(power[e], f) for e in range(k, -1, -1) for f in forms[k - e]]
                 for k in range(order + 1)]
    return forms


def orbit_table(levels) -> tuple:
    """(alphas, orbits) for k = 0..order: alphas = levels[k], the partitions
    of k zero-padded to one size, and orbits[i] the index in alphas of the
    orbit of the i-th composition of k into size parts (compositions' order)."""
    size, order = len(levels[0][0]), len(levels) - 1
    comps = compositions([[(e,) for e in range(order + 1)]] * size, add, (), order)
    table = []
    for alphas, level in zip(levels, comps):
        index = {alpha: i for i, alpha in enumerate(alphas)}
        table.append((tuple(alphas), tuple(index[tuple(sorted(a, reverse=True))] for a in level)))
    return tuple(table)


def contingency_counts(rows, cols) -> tuple:
    """counts[k][i][j] for k = 0..order: the number of matrices of
    nonnegative integers whose row sums are rows[k][i] and whose column
    sums are cols[k][j], rows and cols partitions as in orbit_table.
    Counted row by row: a last row c <= beta leaves the matrices of the
    other rows with column sums beta - c, a count that is symmetric in the
    columns, so it is memoised on the rows left and the sorted column sums
    left."""
    memo = {}

    def count(rows: tuple, cols: tuple) -> int:
        # rows and cols without zero parts, of one size
        if len(rows) < 2 or len(cols) < 2:
            return 1
        if rows > cols:
            # the transpose of a matrix swaps its row and column sums
            rows, cols = cols, rows
        got = memo.get((rows, cols))
        if got is None:
            got = memo[rows, cols] = sum(count(rows[:-1], left) for left in _rests(cols, rows[-1]))
        return got

    def nonzero(alpha):
        return tuple(p for p in alpha if p)

    return tuple(tuple(tuple(count(nonzero(alpha), nonzero(beta)) for beta in betas)
                       for alpha in alphas) for alphas, betas in zip(rows, cols))


def _rests(cols: tuple, a: int) -> list:
    """The sorted nonzero parts of cols - c for each composition c of a with
    c <= cols, one entry per c."""
    level = [((), a)]
    room = sum(cols)
    for x in cols:
        room -= x
        # what this column takes: at most x and what is left, at least what
        # the columns after it cannot hold
        level = [(left + (x - c,), rest - c) for left, rest in level
                 for c in range(max(0, rest - room), min(x, rest) + 1)]
    return [tuple(sorted(filter(None, left), reverse=True)) for left, _ in level]


def kostka_products(starts, table, units, shapes) -> tuple:
    """ms[k][i][j]: the sum, over the states lam of size k, those of
    starts[k]:starts[k + 1], of K[lam][alpha_i] * K[lam][beta_j], where
    alpha_i and beta_j are the partitions of k of shapes[0] and shapes[1]
    (orbit_table).  table maps each state lam to s_lam as a map from keys
    on units to coefficients, and K[lam][alpha], the Kostka number, is its
    coefficient at the dominant monomial of alpha's parts on the first
    len(alpha) units, for either shape."""
    ms = []
    for k, (a, b) in enumerate(zip(starts, starts[1:])):
        kx, ky = ([[t.get(key, 0) for t in table[a:b]]
                   for key in [sum(map(mul, alpha, units)) for alpha in shape[k][0]]]
                  for shape in shapes)
        ms.append(tuple(tuple(sum(map(mul, p, q)) for q in ky) for p in kx))
    return tuple(ms)


def expanded(form: Orbits) -> list:
    """sums[k], the t^k sum of form as a terms map of its ring: the sum over
    i and j of ms[k][i][j] m_i(x) m_j(y), m_i the sum, over the compositions
    a of its orbit, of the product of each point to the power a_i, every
    product and sum made in place by packing's kernel (_add_product)."""
    order, one = len(form.ms) - 1, {0: 1}

    def product(a, b):
        out = {}
        _add_product(out, a, b)
        return out

    sides = []
    for points, shape in zip(form.points, form.shapes):
        powers = [list(accumulate([p] * order, product, initial=one)) for p in points]
        sums = []
        for (alphas, orbits), level in zip(shape, compositions(powers, product, one, order)):
            m = [{} for _ in alphas]
            for i, v in zip(orbits, level):
                _add_product(m[i], one, v)
            sums.append(m)
        sides.append(sums)
    out = []
    for mk, mx, my in zip(form.ms, *sides):
        out.append({})
        for row, x in zip(mk, mx):
            # the y side of row i, sum_j ms[k][i][j] m_j(y), times m_i(x)
            y = {}
            for c, v in zip(row, my):
                _add_product(y, {0: c}, v)
            _add_product(out[-1], x, y)
    return out


def evaluated(form: Orbits, points) -> list:
    """values[k], the t^k sum of form at a point: the sum over i and j of
    ms[k][i][j] * m_i(x) * m_j(y), where m_i(x), the monomial symmetric
    sum of the partition alpha_i, sums x^a over the compositions a of its
    orbit, and points[0] and points[1] are the values of each side's
    atoms in form's order (ints, say)."""
    order = len(form.ms) - 1
    sides = []
    for side, shape in zip(points, form.shapes):
        values = compositions([[p ** e for e in range(order + 1)] for p in side], mul, 1, order)
        sums = []
        for (alphas, orbits), level in zip(shape, values):
            m = [0] * len(alphas)
            for i, v in zip(orbits, level):
                m[i] += v
            sums.append(m)
        sides.append(sums)
    return [sum(map(mul, mx, [sum(map(mul, row, my)) for row in mk]))
            for mk, mx, my in zip(form.ms, *sides)]
